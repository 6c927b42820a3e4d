import dataclasses
import struct
import zlib

import numpy as np
import pytest

from hifbench import layers as L
from hifbench.models import (
    CKPT_MAGIC,
    CheckpointCorruptError,
    CheckpointVersionError,
    CnnSpec,
    ConvBlockSpec,
    FingerprintMismatchError,
    MlpSpec,
    SpecError,
    backward_batch,
    build_model,
    fingerprint,
    forward,
    forward_batch,
    load_checkpoint,
    restore_for_transfer,
    save_checkpoint,
    spec_from_dict,
    standardize,
)

TINY_CNN = CnnSpec(
    blocks=(ConvBlockSpec(2, 5, 2, 2), ConvBlockSpec(2, 3, 2, 2),
            ConvBlockSpec(2, 3, 2, 2), ConvBlockSpec(2, 3, 2, 2)),
    hidden_dim=8,
    input_length=60,
)
TINY_MLP = MlpSpec(hidden_dims=(8, 8, 4), input_length=20)


class TestSpecs:
    def test_default_cnn_shape_chain(self):
        spec = CnnSpec()
        assert spec.feature_lengths() == [300, 294, 147, 143, 71, 67, 33, 31, 15]
        assert spec.flat_dim == 32 * 15

    def test_default_parameter_counts(self):
        cnn = build_model(CnnSpec(), 0)
        mlp = build_model(MlpSpec(), 0)
        assert cnn.parameter_count() == 37265
        assert mlp.parameter_count() == 48897
        # comparable budgets: neither model wins by sheer size
        assert mlp.parameter_count() < 1.5 * cnn.parameter_count()

    def test_cnn_wants_exactly_four_blocks(self):
        with pytest.raises(SpecError):
            CnnSpec(blocks=(ConvBlockSpec(8, 7, 2, 2),))

    def test_collapsing_shape_rejected(self):
        with pytest.raises(SpecError):
            CnnSpec(blocks=(ConvBlockSpec(8, 7, 2, 2),) * 4, input_length=20)

    def test_spec_dict_roundtrip(self):
        for spec in (CnnSpec(), MlpSpec(), TINY_CNN, TINY_MLP):
            assert spec_from_dict(spec.to_dict()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            spec_from_dict({"kind": "transformer"})

    def test_fingerprint_distinguishes_specs(self):
        assert fingerprint(CnnSpec()) != fingerprint(MlpSpec())
        assert fingerprint(CnnSpec()) != fingerprint(TINY_CNN)
        assert len(fingerprint(CnnSpec())) == 32
        assert fingerprint(CnnSpec()) == fingerprint(CnnSpec())


class TestBuildAndForward:
    def test_build_deterministic(self):
        a = build_model(TINY_CNN, 3)
        b = build_model(TINY_CNN, 3)
        assert np.array_equal(a.flat_parameters(), b.flat_parameters())
        c = build_model(TINY_CNN, 4)
        assert not np.array_equal(a.flat_parameters(), c.flat_parameters())

    def test_biases_start_at_zero(self):
        model = build_model(TINY_CNN, 0)
        for layer in model.layer_list:
            assert np.all(layer.bias == 0.0)

    def test_forward_batch_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for spec in (TINY_CNN, TINY_MLP):
            model = build_model(spec, 1)
            probs = forward_batch(model, rng.normal(size=(5, spec.input_length)))
            assert probs.shape == (5,)
            assert np.all((probs > 0) & (probs < 1))

    def test_single_forward_matches_batch(self):
        rng = np.random.default_rng(1)
        model = build_model(TINY_MLP, 1)
        x = rng.normal(size=(3, TINY_MLP.input_length))
        batch = forward_batch(model, x)
        for i in range(3):
            assert forward(model, x[i]) == pytest.approx(batch[i], rel=1e-12)

    def test_wrong_window_length_rejected(self):
        model = build_model(TINY_MLP, 1)
        with pytest.raises(L.ShapeError):
            forward_batch(model, np.zeros((2, 7)))

    def test_standardize(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 100))
        z = standardize(x)
        assert np.allclose(z.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=1), 1.0, atol=1e-12)

    def test_standardize_constant_window(self):
        z = standardize(np.full((1, 50), 7.0))
        assert np.all(np.isfinite(z))
        assert np.all(z == 0.0)

    def test_set_flat_parameters_roundtrip(self):
        model = build_model(TINY_CNN, 5)
        flat = model.flat_parameters()
        clone = build_model(TINY_CNN, 6)
        clone.set_flat_parameters(flat)
        assert np.array_equal(clone.flat_parameters(), flat)
        with pytest.raises(CheckpointCorruptError):
            clone.set_flat_parameters(flat[:-1])

    def test_copy_is_exact_and_independent(self):
        model = build_model(TINY_CNN, 5)
        clone = model.copy()
        assert clone.init_seed == 5 and clone.spec == model.spec
        assert clone.flat_parameters().tobytes() == model.flat_parameters().tobytes()
        clone.layer_list[0].weights += 1.0
        clone.layer_list[-1].bias += 1.0
        assert model.flat_parameters().tobytes() == build_model(TINY_CNN, 5).flat_parameters().tobytes()


class TestBackwardStart:
    def test_partial_backward_matches_full(self):
        rng = np.random.default_rng(3)
        for spec in (TINY_CNN, TINY_MLP):
            model = build_model(spec, 2)
            x = rng.normal(size=(5, spec.input_length))
            y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
            probs, cache = forward_batch(model, x, want_cache=True)
            full = backward_batch(model, cache, probs, y)
            for k in range(len(model.layer_list)):
                part = backward_batch(model, cache, probs, y, first_layer=k)
                assert all(g is None for g in part[:k])
                for (f_w, f_b), (p_w, p_b) in zip(full[k:], part[k:]):
                    assert f_w.tobytes() == p_w.tobytes()
                    assert f_b.tobytes() == p_b.tobytes()


def rewrite_metadata(path, meta_blob: bytes) -> None:
    """Replace a checkpoint's metadata block and recompute its CRC."""
    blob = path.read_bytes()
    head = len(CKPT_MAGIC) + 4 + 32
    (count,) = struct.unpack_from("<Q", blob, head)
    body = blob[: head + 8 + 8 * count] + struct.pack("<I", len(meta_blob)) + meta_blob
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        model = build_model(TINY_CNN, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {"note": "hello"}, path)
        ckpt = load_checkpoint(path)
        assert np.array_equal(ckpt.params, model.flat_parameters())
        assert ckpt.metadata["note"] == "hello"
        assert ckpt.spec == TINY_CNN

    def test_restore_for_transfer_is_exact(self, tmp_path):
        model = build_model(TINY_MLP, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        restored = restore_for_transfer(load_checkpoint(path), TINY_MLP)
        assert np.array_equal(restored.flat_parameters(), model.flat_parameters())

    def test_restore_rejects_other_spec(self, tmp_path):
        model = build_model(TINY_MLP, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        with pytest.raises(FingerprintMismatchError):
            restore_for_transfer(load_checkpoint(path), TINY_CNN)

    def test_corrupt_file_rejected(self, tmp_path):
        model = build_model(TINY_MLP, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        model = build_model(TINY_MLP, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(CKPT_MAGIC), 99)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"garbage bytes here")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_tampered_fingerprint_detected(self, tmp_path):
        # valid CRC but fingerprint that does not match the stored spec
        model = build_model(TINY_MLP, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        blob = bytearray(path.read_bytes())
        off = len(CKPT_MAGIC) + 4
        blob[off:off + 32] = fingerprint(TINY_CNN)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FingerprintMismatchError):
            load_checkpoint(path)

    def test_checkpoint_write_deterministic(self, tmp_path):
        model = build_model(TINY_CNN, 9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, {"k": 1}, p1)
        save_checkpoint(model, {"k": 1}, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("meta", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b"{}", b'{"spec": "cnn"}',
        b'{"spec": {"kind": "cnn"}}', b'{"spec": {"kind": "mlp", "hidden_dims": [8, "x", 4]}}',
        b'{"spec": {"kind": "cnn", "blocks": [[8, 7, 2, 0], [1, 1, 1, 1], [1, 1, 1, 1], '
        b'[1, 1, 1, 1]], "hidden_dim": 4}}',
        b"[" * 100_000,
    ])
    def test_malformed_metadata_is_corrupt(self, tmp_path, meta):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(TINY_MLP, 9), {}, path)
        rewrite_metadata(path, meta)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
