import json
import struct
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hifbench import cli
from hifbench.datafile import read_dataset, write_dataset
from hifbench.models import MlpSpec, build_model, save_checkpoint
from hifbench.profiles import CNN_SPEC
from hifbench.waveforms import GenConfig

from test_models import TINY_MLP

SMALL_MLP = MlpSpec(hidden_dims=(8, 8, 4), input_length=300)


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def forbid_work(monkeypatch) -> None:
    """Make the CLI fail loudly if it reads or builds a dataset."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the command ran before its paths were checked")

    for name in ("build_dataset", "read_dataset"):
        monkeypatch.setattr(cli, name, forbidden)


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

    @pytest.mark.parametrize("flags, count, seed", [
        (("--count", 4), 4, 3),
        (("--seed", 9, "--count", 5), 5, 9),
    ], ids=["count", "seed_and_count"])
    def test_overrides_replace_config_values_before_the_check(self, tmp_path, flags, count, seed):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "target", "count": 1, "seed": 3}))
        out = tmp_path / "x.dataset"
        assert run_cli("gen", "--config", cfg, *flags, "--out", out) == cli.EXIT_OK
        d = read_dataset(out)
        assert (len(d), d.master_seed) == (count, seed)

    def test_invalid_override_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "target", "count": 4, "seed": 3}))
        out = tmp_path / "x.dataset"
        assert run_cli("gen", "--config", cfg, "--count", 1, "--out", out) == cli.EXIT_CONFIG
        assert "count must lie in [2, 2**64), got 1" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("change", [
        {"ranges": 5},
        {"ranges": {"v_p": [1]}},
        {"ranges": {"loading": [-1e308, 1e308]}},
        {"ranges": {"frequency": [60.0, 7500.0]}},
        {"ranges": {"frequency": [1e-320, 60.0]}},
        {"count": "x"},
        {"seed": 1e999},
        {"transient_mix": {"load_step": "a"}},
        {"transient_mix": {"load_step": 1e308, "feeder_switch": 1e308}},
        {"transient_mix": 5},
    ], ids=["ranges_not_object", "range_of_one", "unbounded_range", "frequency_above_nyquist",
            "frequency_subnormal", "count_not_int",
            "seed_infinite", "weight_not_number", "weights_sum_overflows", "mix_not_object"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, change):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "source", "count": 10, "seed": 1, **change}))
        out = tmp_path / "x.dataset"
        assert run_cli("gen", "--config", cfg, "--out", out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", ["gen", "gradcheck"])
    def test_deeply_nested_json_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        flag = {"gen": ["--config", path, "--out", tmp_path / "x"], "gradcheck": ["--model", path]}
        assert run_cli(command, *flag[command]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_the_cap", "one_byte_over"])
    def test_config_larger_than_the_cap_is_config_error(self, tmp_path, capsys, extra):
        text = json.dumps(GenConfig("target", 4, 3).to_dict())
        cfg = tmp_path / "gen.json"
        cfg.write_text(text + " " * (cli.MAX_JSON_BYTES - len(text) + extra))
        out = tmp_path / "x.dataset"
        code = run_cli("gen", "--config", cfg, "--out", out)
        if extra:
            assert code == cli.EXIT_CONFIG and not out.exists()
            assert capsys.readouterr().err == (
                f"error: cannot read config: {cfg} is larger than {cli.MAX_JSON_BYTES} bytes\n")
        else:
            assert code == cli.EXIT_OK and len(read_dataset(out)) == 4

    def test_config_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[]")
        assert run_cli("gen", "--config", cfg, "--out", tmp_path / "x") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_is_config_error(self, tmp_path, capsys, seed):
        out = tmp_path / "x.dataset"
        assert run_cli("gen", "--profile", "case2", "--seed", seed, "--out", out) == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_largest_u64_seed_is_recorded(self, tmp_path):
        out = tmp_path / "x.dataset"
        assert run_cli("gen", "--profile", "case2", "--count", 4, "--seed", 2**64 - 1,
                       "--out", out) == cli.EXIT_OK
        assert read_dataset(out).master_seed == 2**64 - 1


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

    def test_zero_epochs_writes_a_loadable_checkpoint(self, dataset_file, tmp_path, capsys):
        from hifbench.models import load_checkpoint

        ckpt = tmp_path / "m.ckpt"
        assert run_cli("train", "--data", dataset_file, "--model", "mlp", "--epochs", 0,
                       "--out", ckpt) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "trained 0 epochs" in captured.out
        assert load_checkpoint(ckpt).metadata["epochs_trained"] == 0

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-0.1", "1.5"])
    def test_bad_eval_threshold_is_config_error(self, dataset_file, tmp_path, capsys,
                                                threshold):
        from hifbench.profiles import MLP_SPEC

        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(build_model(MLP_SPEC, 0), {}, ckpt)
        # one argument, so that argparse reads "-inf" as a value, not an option
        assert run_cli("eval", "--ckpt", ckpt, "--data", dataset_file,
                       f"--threshold={threshold}") == cli.EXIT_CONFIG
        assert "--threshold" in capsys.readouterr().err
        for edge in (0.0, 1.0):
            assert run_cli("eval", "--ckpt", ckpt, "--data", dataset_file,
                           "--threshold", edge) == cli.EXIT_OK

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sample_is_data_error(self, dataset_file, tmp_path, capsys, value):
        import struct
        import zlib

        from hifbench.datafile import _HEADER, _RECORD_HEAD

        bad = tmp_path / "bad.dataset"
        blob = bytearray(dataset_file.read_bytes())
        struct.pack_into("<d", blob, _HEADER.size + _RECORD_HEAD.size + 8 * 5, value)
        body = bytes(blob[:-4])
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert run_cli("train", "--data", bad, "--model", "mlp",
                       "--out", tmp_path / "m.ckpt", "--epochs", 1) == cli.EXIT_DATA
        assert "non-finite sample" in capsys.readouterr().err

    def test_divergence_exit_code(self, dataset_file, tmp_path, capsys):
        code = run_cli("train", "--data", dataset_file, "--model", "mlp",
                       "--out", tmp_path / "m.ckpt", "--epochs", 10,
                       "--lr", 1e18)
        assert code == cli.EXIT_DIVERGENCE
        assert "error: training diverged: non-finite loss" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "finetune", "eval"])
    def test_bad_train_fraction_is_config_error(self, dataset_file, tmp_path, capsys, command):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(build_model(TINY_MLP, 0), {}, ckpt)
        argv = {"train": ["train", "--model", "mlp", "--out", tmp_path / "x.ckpt"],
                "finetune": ["finetune", "--ckpt", ckpt, "--out", tmp_path / "x.ckpt"],
                "eval": ["eval", "--ckpt", ckpt, "--holdout"]}[command]
        assert run_cli(*argv, "--data", dataset_file,
                       "--train-fraction", 1.5) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: train_fraction" in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("command", ["gen", "train", "gradcheck"])
    def test_file_that_is_not_utf8_is_config_error(self, dataset_file, tmp_path, capsys, command):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff\xfe{")
        argv = {"gen": ["gen", "--config", path, "--out", tmp_path / "x.dataset"],
                "train": ["train", "--data", dataset_file, "--model", path,
                          "--out", tmp_path / "m.ckpt", "--epochs", 1],
                "gradcheck": ["gradcheck", "--model", path]}[command]
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "utf-8" in err[0]
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    def test_bad_spec_file_is_config_error(self, dataset_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "transformer"}))
        assert run_cli("train", "--data", dataset_file, "--model", spec,
                       "--out", tmp_path / "m.ckpt") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("change", [
        {"hidden_dim": 0},
        {"blocks": [[8, 7, 2, 0], [16, 5, 2, 2], [32, 5, 2, 2], [32, 3, 2, 2]]},
        {"hidden_dim": "x"},
        {"blocks": [[8, 7], [16, 5, 2, 2], [32, 5, 2, 2], [32, 3, 2, 2]]},
    ], ids=["zero_hidden_dim", "zero_pool_stride", "string_hidden_dim", "short_block"])
    def test_malformed_cnn_spec_is_config_error(self, dataset_file, tmp_path, capsys, change):
        from hifbench.profiles import CNN_SPEC

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**CNN_SPEC.to_dict(), **change}))
        assert run_cli("train", "--data", dataset_file, "--model", spec,
                       "--out", tmp_path / "m.ckpt", "--epochs", 1) == cli.EXIT_CONFIG
        assert "error: cannot load model spec" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "mlp", "hidden_dims": [4, 4, 4], "input_length": 0},
        {"kind": "mlp", "hidden_dims": [4, 4, 4], "input_length": -3},
        {"kind": "mlp", "hidden_dims": [10**12, 1, 1]},
        {"kind": "cnn", "blocks": [[8, 7, 2, 2], [16, 5, 2, 2], [32, 5, 2, 2], [32, 3, 2, 2]],
         "hidden_dim": 64, "input_length": 10**14},
        {"kind": "cnn", "blocks": [[8, 7, 2, 2], [16, 5, 2, 2], [32, 5, 2, 2], [32, 3, 2, 2]],
         "hidden_dim": 1e400},  # json.loads reads it as inf, which int() cannot convert
    ], ids=["zero_input_length", "negative_input_length", "huge_mlp", "huge_cnn",
            "infinite_hidden_dim"])
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_degenerate_or_huge_spec_is_config_error(self, dataset_file, tmp_path, capsys,
                                                     command, spec):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        argv = {"train": ["train", "--data", dataset_file, "--out", tmp_path / "m.ckpt",
                          "--epochs", 1],
                "gradcheck": ["gradcheck"]}[command]
        assert run_cli(*argv, "--model", path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]  # no checkpoint, no manifest


class TestFlagValues:
    @pytest.fixture()
    def argv_of(self, dataset_file, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(build_model(TINY_MLP, 0), {}, ckpt)
        out = ["--out", tmp_path / "x.ckpt"]
        return {"train": ["train", "--data", dataset_file, "--model", "mlp", *out],
                "finetune": ["finetune", "--ckpt", ckpt, "--data", dataset_file, *out],
                "eval": ["eval", "--ckpt", ckpt, "--data", dataset_file],
                "gradcheck": ["gradcheck", "--model", "mlp"]}

    @pytest.mark.parametrize("command,flags", [
        ("train", ["--seed", -1]),
        ("train", ["--init-seed", -1]),
        ("train", ["--split-seed", -1]),
        ("train", ["--seed", 2**64]),
        ("finetune", ["--scratch", "--init-seed", -2]),
        ("eval", ["--holdout", "--split-seed", -3]),
        ("gradcheck", ["--seed", -1]),
    ], ids=["train-seed", "train-init-seed", "train-split-seed", "train-seed-2**64",
            "finetune-init-seed", "eval-split-seed", "gradcheck-seed"])
    def test_seed_outside_u64_is_config_error(self, argv_of, tmp_path, capsys, command, flags):
        assert run_cli(*argv_of[command], *flags) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {flags[-2]} must lie in [0, 2**64)" in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "finetune"])
    @pytest.mark.parametrize("lr", ["nan", "inf", "-1"])
    def test_lr_must_be_finite_and_nonnegative(self, argv_of, tmp_path, capsys, command, lr):
        assert run_cli(*argv_of[command], "--epochs", 1, "--lr", lr) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: bad training config: learning_rate" in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()

    # counts whose block allocation fails at once: none may be one that could succeed
    @pytest.mark.parametrize("count", [10**12, 2**63, 2**64])
    def test_gen_count_too_large_is_config_error(self, tmp_path, capsys, count):
        out = tmp_path / "x.dataset"
        assert run_cli("gen", "--profile", "case2", "--count", count,
                       "--out", out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "count" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())


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
        assert run_cli("eval", "--ckpt", src, "--data", dataset_file) == cli.EXIT_FINGERPRINT

    def test_training_commands_call_cli_train_once(self, dataset_file, tmp_path, spy):
        """The benchmark times training by replacing cli.train, so each
        training command must reach train() through that name, once."""
        calls = spy(cli, "train")
        src = tmp_path / "src.ckpt"
        finetune = ["finetune", "--ckpt", src, "--data", dataset_file, "--epochs", 1]
        for argv in (["train", "--data", dataset_file, "--model", "mlp", "--epochs", 1],
                     finetune, [*finetune, "--scratch"]):
            calls.clear()
            out = src if argv[0] == "train" else tmp_path / "ft.ckpt"
            assert run_cli(*argv, "--out", out) == cli.EXIT_OK
            assert len(calls) == 1, argv


class TestExitCodes:
    @pytest.mark.parametrize("init_seed", ["x", None, [1]], ids=["str", "null", "list"])
    def test_init_seed_metadata_is_not_parsed(self, dataset_file, tmp_path, init_seed):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(build_model(SMALL_MLP, 0), {"init_seed": init_seed}, ckpt)
        assert run_cli("eval", "--ckpt", ckpt, "--data", dataset_file) == cli.EXIT_OK
        assert run_cli("finetune", "--ckpt", ckpt, "--data", dataset_file,
                       "--out", tmp_path / "ft.ckpt", "--epochs", 1) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["train", "finetune", "eval"])
    def test_window_length_mismatch_is_config_error(self, dataset_file, tmp_path, capsys,
                                                    command):
        spec, ckpt = tmp_path / "spec.json", tmp_path / "m.ckpt"
        spec.write_text(json.dumps(TINY_MLP.to_dict()))  # 20-sample windows
        save_checkpoint(build_model(TINY_MLP, 0), {}, ckpt)
        argv = {"train": ["train", "--model", spec, "--out", tmp_path / "x.ckpt", "--epochs", 1],
                "finetune": ["finetune", "--ckpt", ckpt, "--out", tmp_path / "x.ckpt",
                             "--epochs", 1],
                "eval": ["eval", "--ckpt", ckpt]}[command]
        assert run_cli(*argv, "--data", dataset_file) == cli.EXIT_CONFIG
        assert "error: windows must have 20 samples" in capsys.readouterr().err

    # huge_conv_weights overflows in the conv blocks, which a fine-tune runs
    # once, frozen, before its first batch
    @pytest.mark.parametrize("poison", ["nan_bias", "huge_weights", "huge_conv_weights"])
    def test_non_finite_model_output_is_data_error(self, dataset_file, tmp_path, capsys,
                                                   poison):
        model = build_model(CNN_SPEC if poison == "huge_conv_weights" else SMALL_MLP, 0)
        if poison == "nan_bias":
            model.layer_list[-1].bias[0] = float("nan")
        else:
            model.layer_list[0].weights[...] = 1e308
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, ckpt)
        # one error line, and no RuntimeWarning (the suite makes one an error)
        assert run_cli("eval", "--ckpt", ckpt, "--data", dataset_file) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: non-finite activation in forward pass"]
        # training reports the same fault as divergence at its first batch
        assert run_cli("finetune", "--ckpt", ckpt, "--data", dataset_file,
                       "--out", tmp_path / "x.ckpt", "--epochs", 1) == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: training diverged: non-finite loss at epoch 1, batch 0"]

    def test_parameter_count_is_checked_before_allocating(self, dataset_file, tmp_path,
                                                          capsys):
        from hifbench.models import CKPT_MAGIC, fingerprint, spec_from_dict
        from hifbench.profiles import CNN_SPEC
        from test_models import rewrite_metadata

        # a forged spec with a matching fingerprint and CRC: 3.41 PiB of dense weights
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(build_model(CNN_SPEC, 0), {}, ckpt)
        spec = {**CNN_SPEC.to_dict(), "hidden_dim": 10**12}
        blob = bytearray(ckpt.read_bytes())
        off = len(CKPT_MAGIC) + 4
        blob[off:off + 32] = fingerprint(spec_from_dict(spec))
        ckpt.write_bytes(bytes(blob))
        rewrite_metadata(ckpt, json.dumps({"spec": spec}).encode())
        for argv in (["eval"], ["finetune", "--out", tmp_path / "x.ckpt", "--epochs", 1]):
            assert run_cli(*argv, "--ckpt", ckpt, "--data", dataset_file) == cli.EXIT_DATA
            assert "parameters, file has 37265" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    save_checkpoint(build_model(SMALL_MLP, 0), {"init_seed": 0}, path)
    return path


@pytest.fixture(scope="module")
def cnn_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "cnn.ckpt"
    save_checkpoint(build_model(CNN_SPEC, 0), {"init_seed": 0}, path)
    return path


CLEAN_EXITS = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGENCE,
               cli.EXIT_FINGERPRINT)


def flipped(path, pos: int, xor: int, crc: bool = True):
    """A copy of path with byte pos xor-ed, its CRC recomputed if crc."""
    blob = bytearray(path.read_bytes())
    blob[pos] ^= xor
    if crc:
        body = bytes(blob[:-4])
        blob = body + struct.pack("<I", zlib.crc32(body))
    out = path.with_name("flipped-" + path.name)
    out.write_bytes(bytes(blob))
    return out


def exits_cleanly(*argv) -> int:
    """The CLI's exit code; a traceback or a RuntimeWarning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(*argv)
    assert code in CLEAN_EXITS
    return code


@pytest.mark.parametrize("target", ["ckpt", "data"])
@settings(max_examples=100, deadline=None)
@given(draw=st.data())
def test_eval_exits_cleanly_after_any_flipped_byte(dataset_file, small_ckpt, target, draw):
    """One byte of the checkpoint or the 40-window dataset changed, under a
    valid CRC: eval scores it or names the fault by its exit code."""
    paths = {"ckpt": small_ckpt, "data": dataset_file}
    blob_len = paths[target].stat().st_size
    pos = draw.draw(st.integers(0, blob_len - 5), label="position")  # the CRC is rewritten
    paths[target] = flipped(paths[target], pos, draw.draw(st.integers(1, 255), label="xor"))
    code = exits_cleanly("eval", "--ckpt", paths["ckpt"], "--data", paths["data"])
    assert code != cli.EXIT_DIVERGENCE


@pytest.mark.parametrize("crc", [True, False], ids=["crc", "no_crc"])
@settings(max_examples=25, deadline=None)
@given(draw=st.data())
def test_train_exits_cleanly_after_any_flipped_data_byte(dataset_file, crc, draw):
    """One byte of the 40-window dataset changed, with or without a
    recomputed CRC: one MLP epoch trains or names the fault."""
    size = dataset_file.stat().st_size
    pos = draw.draw(st.integers(0, size - (5 if crc else 1)), label="position")
    data = flipped(dataset_file, pos, draw.draw(st.integers(1, 255), label="xor"), crc)
    code = exits_cleanly("train", "--data", data, "--model", "mlp", "--epochs", 1,
                         "--out", data.with_name("trained.ckpt"))
    assert crc or code == cli.EXIT_DATA  # a stale CRC is always caught


@settings(max_examples=25, deadline=None)
@given(draw=st.data())
def test_finetune_exits_cleanly_after_any_flipped_checkpoint_byte(dataset_file, cnn_ckpt, draw):
    """One byte of a CNN checkpoint changed, under a valid CRC: a frozen-conv
    fine-tune epoch trains or names the fault."""
    pos = draw.draw(st.integers(0, cnn_ckpt.stat().st_size - 5), label="position")
    ckpt = flipped(cnn_ckpt, pos, draw.draw(st.integers(1, 255), label="xor"))
    exits_cleanly("finetune", "--ckpt", ckpt, "--data", dataset_file, "--epochs", 1,
                  "--out", ckpt.with_name("tuned.ckpt"))


@pytest.mark.parametrize("command", ["eval", "finetune"])
@settings(max_examples=25, deadline=None)
@given(draw=st.data())
def test_exits_cleanly_after_a_flipped_exponent_bit(dataset_file, cnn_ckpt, command, draw):
    """One of a parameter's 11 exponent bits flipped, under a valid CRC.  A
    uniform byte flip rarely makes a parameter huge; this often does."""
    from hifbench.models import CKPT_MAGIC
    count = build_model(CNN_SPEC, 0).parameter_count()
    index = draw.draw(st.integers(0, count - 1), label="parameter")
    # the top bit takes a weight below 2 in magnitude to about 1e307
    bit = draw.draw(st.just(62) | st.integers(52, 61), label="exponent bit")
    pos = len(CKPT_MAGIC) + 4 + 32 + 8 + 8 * index + bit // 8  # little-endian float64s
    ckpt = flipped(cnn_ckpt, pos, 1 << bit % 8)
    argv = {"eval": ["eval"],
            "finetune": ["finetune", "--epochs", 1, "--out", ckpt.with_name("tuned.ckpt")]}
    code = exits_cleanly(*argv[command], "--ckpt", ckpt, "--data", dataset_file)
    assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_DIVERGENCE)


class TestGradcheckCommand:
    def test_mlp_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--model", "mlp") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "(48897 parameters probed in " in out

    def test_width_one_pool(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "cnn", "hidden_dim": 4, "input_length": 40,
                                    "blocks": [[2, 5, 1, 1], [2, 3, 2, 2],
                                               [2, 3, 2, 2], [2, 3, 2, 2]]}))
        assert run_cli("gradcheck", "--model", spec) in (cli.EXIT_OK, cli.EXIT_USAGE)
        assert "max relative error" in capsys.readouterr().out


class TestFileErrors:
    def test_gen_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.dataset"
        assert run_cli("gen", "--profile", "case2", "--count", 4,
                       "--out", out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err
        assert not (tmp_path / "missing").exists()

    def test_train_on_missing_dataset(self, tmp_path, capsys):
        data = tmp_path / "absent.dataset"
        assert run_cli("train", "--data", data, "--model", "mlp",
                       "--out", tmp_path / "m.ckpt") == cli.EXIT_DATA
        assert str(data) in capsys.readouterr().err


class TestOutputPaths:
    """No command writes one file twice, or over one of its inputs."""

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d.dataset", "--model", "mlp", "--out", "x", "--curves", "x"],
        ["train", "--data", "d.dataset", "--model", "mlp", "--out", "x",
         "--curves", "x.manifest.json"],
        ["train", "--data", "d.dataset", "--model", "x.curves.csv", "--out", "x.ckpt"],
        ["eval", "--ckpt", "m.ckpt", "--data", "d.dataset", "--out", "d.dataset"],
        ["eval", "--ckpt", "m.ckpt", "n.ckpt", "--data", "d.dataset", "--out", "./n.ckpt"],
        ["gen", "--config", "c.json", "--out", "c.json"],
        ["finetune", "--ckpt", "m.ckpt", "--data", "d.dataset", "--out", "sub/../m.ckpt"],
        ["replicate", "case2", "--outdir", ".", "--source-ckpt", "case2.dataset"],
    ], ids=["train_out_is_curves", "train_curves_is_manifest", "train_curves_is_spec",
            "eval_out_is_data", "eval_out_is_a_ckpt", "gen_out_is_config", "finetune_out_is_ckpt",
            "replicate_gen_out_is_source_ckpt"])
    def test_collision_exits_2_before_any_work(self, small_dataset, small_config, tmp_path,
                                               monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        write_dataset(small_dataset, tmp_path / "d.dataset")
        for name in ("m.ckpt", "n.ckpt", "case2.dataset"):
            save_checkpoint(build_model(SMALL_MLP, 0), {}, tmp_path / name)
        (tmp_path / "c.json").write_text(json.dumps(small_config.to_dict()))
        (tmp_path / "x.curves.csv").write_text(json.dumps(SMALL_MLP.to_dict()))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "same file" in err[0]
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("argv", [
        ["gen", "--profile", "case2", "--out", ""],
        ["gen", "--profile", "case2", "--out", "."],
        ["gen", "--profile", "case2", "--out", "/"],
        ["train", "--data", "d.dataset", "--out", "/"],
        ["train", "--data", "d.dataset", "--out", "m.ckpt", "--curves", "/"],
        ["eval", "--ckpt", "m.ckpt", "--data", "d.dataset", "--out", "/"],
    ], ids=["gen_out_empty", "gen_out_dot", "gen_out_root", "train_out_root",
            "train_curves_root", "eval_out_root"])
    def test_output_that_names_no_file_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                                capsys, argv):
        monkeypatch.chdir(tmp_path)
        forbid_work(monkeypatch)
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "names no file" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen", "--profile", "case2", "--count", "40", "--out", "d"],
        ["train", "--data", "c2.dataset", "--model", "mlp", "--epochs", "1", "--out", "d"],
        ["train", "--data", "c2.dataset", "--model", "mlp", "--epochs", "1", "--out", "x.ckpt",
         "--curves", "d"],
        ["eval", "--ckpt", "m.ckpt", "--data", "c2.dataset", "--out", "d"],
    ], ids=["gen_out", "train_out", "train_curves", "eval_out"])
    def test_output_that_names_a_directory_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                                   capsys, argv):
        """A directory output used to be found only when the finished artifact
        was moved onto it, after all the work and, for --curves, after the
        checkpoint was written."""
        monkeypatch.chdir(tmp_path)
        forbid_work(monkeypatch)
        (tmp_path / "d").mkdir()
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "is a directory" in err[0]
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == [Path("d")]

    @pytest.mark.parametrize("argv", [
        ["gen", "--profile", "case2", "--count", "40", "--out", "nodir/x.dataset"],
        ["train", "--data", "c2.dataset", "--model", "mlp", "--epochs", "1",
         "--out", "nodir/x.ckpt"],
        ["train", "--data", "c2.dataset", "--model", "mlp", "--epochs", "1", "--out", "x.ckpt",
         "--curves", "nodir/c.csv"],
        ["eval", "--ckpt", "m.ckpt", "--data", "c2.dataset", "--out", "nodir/r.csv"],
        ["train", "--data", "c2.dataset", "--model", "mlp", "--epochs", "1", "--out", "x.ckpt",
         "--curves", "f/c.csv"],
    ], ids=["gen_out", "train_out", "train_curves", "eval_out", "train_curves_under_a_file"])
    def test_output_in_no_directory_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                             capsys, argv):
        """An output whose directory is missing, or is a file, used to be found
        only when it was written, after all the work and, for --curves, after
        the checkpoint was written."""
        monkeypatch.chdir(tmp_path)
        forbid_work(monkeypatch)
        (tmp_path / "f").write_text("")
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "is not a directory" in err[0]
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == [Path("f")]

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_replicate_makes_its_new_outdir(self, tmp_path, monkeypatch, case):
        """replicate checks its steps' outputs before it makes --outdir, so
        their directory may not exist yet."""
        monkeypatch.chdir(tmp_path)
        steps = []

        def step(args):
            assert Path(args.out).parent.is_dir()
            steps.append((args.cmd, Path(args.out)))
            return cli.EXIT_OK

        for name in ("cmd_gen", "cmd_train", "cmd_finetune", "cmd_eval"):
            monkeypatch.setattr(cli, name, step)
        source = ["--source-ckpt", "c1.ckpt"] if case == "case2" else []
        assert run_cli("replicate", case, "--outdir", "fresh/new/", *source) == cli.EXIT_OK
        assert [cmd for cmd, _ in steps] == (["gen", "train", "train", "eval"] if case == "case1"
                                             else ["gen", "finetune", "finetune", "eval"])
        assert {out.parent for _, out in steps} == {Path("fresh/new")}


    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("outdir", ["f", "f/new"], ids=["a_file", "under_a_file"])
    def test_replicate_outdir_that_is_no_directory_exits_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, case, outdir):
        """replicate's new --outdir is exempt from the directory check only
        where mkdir can make it; a file there used to surface as exit 3 from
        mkdir."""
        monkeypatch.chdir(tmp_path)
        forbid_work(monkeypatch)
        (tmp_path / "f").write_text("")
        source = ["--source-ckpt", "c1.ckpt"] if case == "case2" else []
        assert run_cli("replicate", case, "--outdir", outdir, *source) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "is not a directory" in err[0]
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == [Path("f")]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["train", "--out", "x.ckpt"],  # --data missing
        ["gradcheck", "--seed", "abc"],
        ["eval", "--ckpt", "a", "--data", "b", "--threshold", "-inf"],  # read as an option
        ["finetune", "--ckpt", "a", "--data", "b", "--out", "c", "--freeze-conv"],  # removed
        ["gen", "--profile", "case2", "--config", "c.json", "--count", "4", "--out", "x"],
        ["gen", "--count", "4", "--out", "x"],
    ], ids=["missing_required", "bad_int", "option_like_value", "freeze_conv",
            "gen_profile_and_config", "gen_no_profile_nor_config"])
    def test_parser_errors_exit_1(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(GenConfig("target", 4, 3).to_dict()))
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage: hifbench" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("argv, want", [
        (["train", "--data", "d", "--out", "o"], {"train_fraction": 0.8, "init_seed": 1}),
        (["finetune", "--ckpt", "c", "--data", "d", "--out", "o"],
         {"train_fraction": 0.5, "init_seed": 2}),
        (["eval", "--ckpt", "c", "--data", "d"], {"train_fraction": 0.8}),
    ], ids=["train", "finetune", "eval"])
    def test_shared_flags_keep_each_commands_defaults(self, argv, want):
        args = cli.build_parser().parse_args(argv)
        assert args.split_seed == cli.profiles.SPLIT_SEED and args.data == "d"
        assert {key: getattr(args, key) for key in want} == want
        training = ("out", "curves", "epochs", "lr", "batch", "seed")
        if "init_seed" in want:
            assert [getattr(args, key) for key in training] == ["o"] + [None] * 5
        else:
            assert not any(hasattr(args, key) for key in ("curves", "epochs", "init_seed"))

    def test_help_exits_0(self, capsys):
        assert run_cli("train", "--help") == cli.EXIT_OK
        assert "--data" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    import importlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hifbench

    importlib.import_module("hifbench.__main__")  # as a walk over the package does: no CLI run
    env = dict(os.environ)
    src = str(Path(hifbench.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = lambda *argv: subprocess.run([sys.executable, "-m", "hifbench", *argv], env=env,
                                       capture_output=True, text=True, timeout=60)
    ok = run("--help")
    assert ok.returncode == cli.EXIT_OK and "gradcheck" in ok.stdout
    bad = run("gradcheck", "--seed", "abc")
    assert bad.returncode == cli.EXIT_USAGE
    assert "invalid int value" in bad.stderr and "Traceback" not in bad.stderr


def run_module(*argv) -> tuple[int, list[str]]:
    """(exit code, stderr lines) of python -m hifbench argv in a child process
    whose address space sh's ulimit caps at 1.5 GB, so that a read without end
    fails fast instead of taking the machine's memory."""
    import os
    import subprocess
    import sys

    import hifbench

    env = dict(os.environ)
    src = str(Path(hifbench.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(["sh", "-c", 'ulimit -v 1500000 && exec "$0" -m hifbench "$@"',
                          sys.executable, *map(str, argv)],
                         env=env, capture_output=True, text=True, timeout=120)
    return run.returncode, run.stderr.splitlines()


class TestOneErrorLine:
    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
    @pytest.mark.parametrize("argv, code", [
        (["gen", "--config", "/dev/zero", "--out", "{tmp}/x.dataset"], cli.EXIT_CONFIG),
        (["train", "--data", "{data}", "--model", "/dev/zero", "--out", "{tmp}/m.ckpt"],
         cli.EXIT_CONFIG),
        (["gradcheck", "--model", "/dev/zero"], cli.EXIT_CONFIG),
        (["eval", "--ckpt", "/dev/zero", "--data", "{data}"], cli.EXIT_DATA),
    ], ids=["gen_config", "train_model", "gradcheck_model", "eval_ckpt"])
    def test_an_endless_input_is_refused(self, dataset_file, tmp_path, argv, code):
        got, err = run_module(*(a.format(tmp=tmp_path, data=dataset_file) for a in argv))
        assert got == code and len(err) == 1 and err[0].startswith("error: "), err
        assert list(tmp_path.iterdir()) == []

    def test_gen_whose_samples_overflow_prints_only_the_error(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"scenario": "source", "count": 4, "seed": 1,
                                   "ranges": {"loading": [1e307, 1e307]}}))
        code, err = run_module("gen", "--config", cfg, "--out", tmp_path / "x.dataset")
        assert (code, err) == (cli.EXIT_CONFIG, ["error: window 0: samples must be finite"])
