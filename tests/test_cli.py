import json

import pytest

from hifbench import cli
from hifbench.datafile import read_dataset, write_dataset
from hifbench.models import build_model, save_checkpoint

from test_models import TINY_MLP


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset_file(small_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.dataset"
    write_dataset(small_dataset, path)
    return path


class TestGen:
    def test_gen_with_config_file(self, tmp_path, small_config):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(small_config.to_dict()))
        out = tmp_path / "out.dataset"
        assert run_cli("gen", "--config", cfg_path, "--out", out) == cli.EXIT_OK
        d = read_dataset(out)
        assert len(d) == small_config.count

    def test_manifest_records_artifact_hash(self, tmp_path):
        out = tmp_path / "out.dataset"
        assert run_cli("gen", "--profile", "case2", "--count", 10,
                       "--out", out) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "out.dataset.manifest.json").read_text())
        assert manifest["command"] == "gen"
        import hashlib
        assert manifest["artifacts"]["dataset_sha256"] == hashlib.sha256(
            out.read_bytes()).hexdigest()

    def test_seed_override(self, tmp_path):
        a, b = tmp_path / "a.dataset", tmp_path / "b.dataset"
        run_cli("gen", "--profile", "case2", "--count", 10, "--seed", 1, "--out", a)
        run_cli("gen", "--profile", "case2", "--count", 10, "--seed", 2, "--out", b)
        assert a.read_bytes() != b.read_bytes()

    def test_missing_source_is_usage_error(self, tmp_path):
        assert run_cli("gen", "--out", tmp_path / "x") == cli.EXIT_USAGE

    def test_bad_config_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli("gen", "--config", cfg,
                       "--out", tmp_path / "x") == cli.EXIT_CONFIG

    def test_invalid_config_values(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "nowhere", "count": 10, "seed": 1}))
        assert run_cli("gen", "--config", cfg,
                       "--out", tmp_path / "x") == cli.EXIT_CONFIG


class TestTrainEvalPipeline:
    def test_train_then_eval(self, dataset_file, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code = run_cli("train", "--data", dataset_file, "--model", "mlp",
                       "--out", ckpt, "--epochs", 2, "--lr", 0.01)
        assert code == cli.EXIT_OK
        assert ckpt.exists()
        assert ckpt.with_suffix(".curves.csv").exists()
        code = run_cli("eval", "--ckpt", ckpt, "--data", dataset_file,
                       "--holdout", "--out", tmp_path / "report.csv")
        assert code == cli.EXIT_OK
        table = capsys.readouterr().out
        assert "Accuracy" in table and "True Positive" in table
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "model,tp,fp,fn,tn,accuracy"

    def test_corrupt_dataset_is_data_error(self, dataset_file, tmp_path):
        bad = tmp_path / "bad.dataset"
        blob = bytearray(dataset_file.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad.write_bytes(bytes(blob))
        assert run_cli("train", "--data", bad, "--model", "mlp",
                       "--out", tmp_path / "m.ckpt", "--epochs", 1) == cli.EXIT_DATA

    def test_unknown_label_byte_is_data_error(self, dataset_file, tmp_path, capsys):
        import struct
        import zlib

        from hifbench.datafile import _HEADER

        bad = tmp_path / "bad.dataset"
        blob = bytearray(dataset_file.read_bytes())
        blob[_HEADER.size] = 7  # first window's label byte, then a valid CRC
        body = bytes(blob[:-4])
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert run_cli("train", "--data", bad, "--model", "mlp",
                       "--out", tmp_path / "m.ckpt", "--epochs", 1) == cli.EXIT_DATA
        assert "label 7" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, dataset_file, tmp_path):
        code = run_cli("train", "--data", dataset_file, "--model", "mlp",
                       "--out", tmp_path / "m.ckpt", "--epochs", 10,
                       "--lr", 1e18)
        assert code == cli.EXIT_DIVERGENCE

    def test_bad_spec_file_is_config_error(self, dataset_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "transformer"}))
        assert run_cli("train", "--data", dataset_file, "--model", spec,
                       "--out", tmp_path / "m.ckpt") == cli.EXIT_CONFIG


class TestFinetune:
    def test_finetune_runs(self, dataset_file, tmp_path):
        src = tmp_path / "src.ckpt"
        run_cli("train", "--data", dataset_file, "--model", "mlp",
                "--out", src, "--epochs", 1)
        out = tmp_path / "ft.ckpt"
        code = run_cli("finetune", "--ckpt", src, "--data", dataset_file,
                       "--out", out, "--epochs", 1, "--train-fraction", 0.5)
        assert code == cli.EXIT_OK and out.exists()

    def test_corrupt_checkpoint_is_data_error(self, dataset_file, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert run_cli("finetune", "--ckpt", bad, "--data", dataset_file,
                       "--out", tmp_path / "x.ckpt",
                       "--epochs", 1) == cli.EXIT_DATA

    def test_malformed_checkpoint_metadata_is_data_error(self, dataset_file, tmp_path):
        from test_models import rewrite_metadata

        src = tmp_path / "src.ckpt"
        save_checkpoint(build_model(TINY_MLP, 0), {}, src)
        for meta in (b"{not json", b'{"init_seed": 0}'):
            rewrite_metadata(src, meta)
            assert run_cli("finetune", "--ckpt", src, "--data", dataset_file,
                           "--out", tmp_path / "x.ckpt", "--epochs", 1) == cli.EXIT_DATA
            assert run_cli("eval", "--ckpt", src, "--data", dataset_file) == cli.EXIT_DATA

    def test_tampered_fingerprint_is_fingerprint_error(self, dataset_file, tmp_path):
        import struct
        import zlib

        from hifbench.models import CKPT_MAGIC, fingerprint
        from test_models import TINY_CNN

        src = tmp_path / "src.ckpt"
        save_checkpoint(build_model(TINY_MLP, 0), {}, src)
        blob = bytearray(src.read_bytes())
        off = len(CKPT_MAGIC) + 4
        blob[off:off + 32] = fingerprint(TINY_CNN)
        body = bytes(blob[:-4])
        src.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert run_cli("finetune", "--ckpt", src, "--data", dataset_file,
                       "--out", tmp_path / "x.ckpt",
                       "--epochs", 1) == cli.EXIT_FINGERPRINT


class TestGradcheckCommand:
    def test_mlp_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--model", "mlp") == cli.EXIT_OK
        assert "[PASS]" in capsys.readouterr().out
