import dataclasses
import itertools
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hifbench import layers as L
from hifbench import models
from hifbench.datafile import write_dataset
from hifbench.models import (
    CKPT_MAGIC,
    CKPT_VERSION,
    CONV_CHUNK,
    CheckpointError,
    CnnSpec,
    ConvBlockSpec,
    FingerprintMismatchError,
    MlpSpec,
    Model,
    SpecError,
    batch_loss_and_grads,
    build_model,
    fingerprint,
    forward,
    forward_batch,
    load_checkpoint,
    restore_for_transfer,
    run_stages,
    save_checkpoint,
    spec_from_dict,
    standardize,
)
from hifbench.profiles import CNN_SPEC

from test_datafile import synthetic_dataset, traced_peak
from test_layers import add_at_maxpool_backward

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
        assert models._stages(spec)[4].shape == (64, 32 * 15)  # the first dense layer

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

    @pytest.mark.parametrize("make", [
        lambda: CnnSpec(hidden_dim=True),
        lambda: CnnSpec(input_length=300.0),
        lambda: MlpSpec(hidden_dims=(8.5, 8, 4)),
        lambda: MlpSpec(hidden_dims=(True, 8, 4)),
        lambda: MlpSpec(hidden_dims=("8", 8, 4)),
        lambda: MlpSpec(input_length=30.5),
    ], ids=["cnn_bool_hidden_dim", "cnn_float_input_length", "mlp_float_width",
            "mlp_bool_width", "mlp_str_width", "mlp_float_input_length"])
    def test_a_width_that_is_not_an_int_is_refused(self, make):
        """Else the spec is made, and build_model fails with numpy's TypeError;
        a bool hidden_dim also fingerprints apart from its own round trip."""
        with pytest.raises(SpecError, match="must be integers of at least 1"):
            make()

    def test_spec_files_keep_their_int_conversion(self):
        assert spec_from_dict({"kind": "mlp", "hidden_dims": [8.0, True, "4"],
                               "input_length": 20.0}) == MlpSpec((8, 1, 4), 20)
        doc = {**TINY_CNN.to_dict(), "hidden_dim": 8.0, "input_length": "60"}
        assert spec_from_dict(doc) == TINY_CNN

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

    def test_profile_fingerprints_are_pinned(self):
        """Every checkpoint of the profile networks carries these bytes, so a
        change to a spec's fields or its document must leave them alone."""
        from hifbench.profiles import MLP_SPEC

        assert fingerprint(CNN_SPEC).hex() == (
            "2a3e6bb1129a1dd1051362c8f25fcd402f51d3cae5c55025a78e3cd1b5ef26d9")
        assert fingerprint(MLP_SPEC).hex() == (
            "5bf98f845be4dc0c9bedde0a16739f2797755d9c9cb82471ba8c555800968fb7")
        assert CNN_SPEC.to_dict()["output_dim"] == 1


def _cnn_or_none(blocks, hidden_dim, input_length):
    try:
        return CnnSpec(blocks=tuple(ConvBlockSpec(*b) for b in blocks), hidden_dim=hidden_dim,
                       input_length=input_length)
    except SpecError:  # the shape algebra collapsed
        return None


_small = st.integers(1, 4)
random_specs = st.one_of(
    st.builds(_cnn_or_none, st.lists(st.tuples(_small, st.integers(1, 6), _small,
                                               st.integers(1, 3)), min_size=4, max_size=4),
              st.integers(1, 6), st.integers(20, 200)),
    st.builds(MlpSpec, st.tuples(_small, _small, _small), st.integers(1, 40)),
)


class TestStageTable:
    """models._stages: one table per spec, which Model and every pass read."""

    @settings(max_examples=60, deadline=None)
    @given(spec=random_specs)
    def test_table_agrees_with_the_spec_and_the_built_model(self, spec):
        assume(spec is not None)
        table = models._stages(spec)
        assert models._stages(spec) is table  # derived once per spec
        model = build_model(spec, 0)
        assert model.stages is table
        blocks = spec.blocks if isinstance(spec, CnnSpec) else ()
        assert model.n_conv == len(blocks)
        lengths = spec.feature_lengths() if blocks else []
        in_channels = 1
        for i, blk in enumerate(blocks):
            o, k = blk.out_channels, blk.kernel_size
            geometry = (in_channels, lengths[2 * i], k, o, lengths[2 * i + 1], lengths[2 * i + 2])
            assert table[i] == (L.ConvLayer, (o, in_channels, k),
                                (blk.pool_width, blk.pool_stride), geometry)
            in_channels = o
        dense = table[len(blocks):]
        if blocks:
            assert dense[0].shape == (spec.hidden_dim, in_channels * lengths[-1])
        else:
            assert [s.shape[::-1] for s in dense] == spec.layer_dims
        for i, stage in enumerate(dense, len(blocks)):
            assert stage.layer is L.DenseLayer and stage.pool is stage.geo is None
        assert dense[-1].shape[0] == 1  # the sigmoid unit
        sizes = [math.prod(s.shape) + s.shape[0] for s in table]
        assert model.offsets == [0, *itertools.accumulate(sizes)]
        assert model.parameter_count() == sum(sizes)
        for stage, layer in zip(table, model.layer_list):
            assert type(layer) is stage.layer and layer.weights.shape == stage.shape
            assert layer.bias.shape == stage.shape[:1]
        assert models._stages(spec_from_dict(spec.to_dict())) == table
        # stage outputs are T-major below the last conv block and C-major from its output on
        for i, stage in enumerate(table):
            n_out, t = stage.shape[0], stage.geo[-1] if stage.geo else 1
            out = np.arange(2 * n_out * t).reshape(2, -1)
            c_major = i >= len(blocks) - 1
            want = out.reshape(2, n_out, t) if c_major else out.reshape(2, t, n_out).swapaxes(1, 2)
            assert np.array_equal(model.channels(i, out), want)
        with pytest.raises(ValueError, match=f"^parameter vector has {sum(sizes) - 1} entries, "
                                             f"spec needs {sum(sizes)}$"):
            Model(spec, model.params[:-1])


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

    @pytest.mark.parametrize("spec", [TINY_CNN, TINY_MLP, CNN_SPEC],
                             ids=["tiny_cnn", "tiny_mlp", "cnn"])
    @pytest.mark.parametrize("n", [1, 2, 2 * models.HALF_WINDOWS + 1, 2 * CONV_CHUNK + 1])
    def test_a_caches_list_leaves_the_probabilities_alone(self, spec, n):
        """forward_batch(model, x), the inference call, and the same call
        filling a caches list for backward return the same bytes; the list
        gets one cache per stage from start on."""
        model = build_model(spec, 6)
        x = np.random.default_rng(n).normal(size=(n, spec.input_length))
        caches = []
        assert forward_batch(model, x, caches=caches).tobytes() == forward_batch(model, x).tobytes()
        assert len(caches) == len(model.layer_list)
        stored, caches = run_stages(model, x, stop=2), []
        assert (forward_batch(model, stored, 2, caches).tobytes()
                == forward_batch(model, stored, start=2).tobytes())
        assert len(caches) == len(model.layer_list) - 2

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

    def test_model_over_a_parameter_vector(self):
        flat = build_model(TINY_CNN, 5).flat_parameters()
        clone = Model(TINY_CNN, flat)
        assert clone.params is flat
        assert clone.flat_parameters().tobytes() == flat.tobytes()
        for wrong_size in (flat[:-1], np.append(flat, 0.0)):
            with pytest.raises(ValueError, match="spec needs"):
                Model(TINY_CNN, wrong_size)

    def test_copy_is_exact_and_independent(self):
        model = build_model(TINY_CNN, 5)
        clone = model.copy()
        assert clone.spec == model.spec
        assert clone.flat_parameters().tobytes() == model.flat_parameters().tobytes()
        clone.layer_list[0].weights += 1.0
        clone.layer_list[-1].bias += 1.0
        assert model.flat_parameters().tobytes() == build_model(TINY_CNN, 5).flat_parameters().tobytes()

    @pytest.mark.parametrize("spec", [TINY_CNN, TINY_MLP], ids=["cnn", "mlp"])
    def test_layers_are_views_of_one_parameter_vector(self, tmp_path, spec):
        model = build_model(spec, 5)
        params = model.params
        assert params.dtype == np.float64 and params.ndim == 1 and params.flags.c_contiguous
        assert model.parameter_count() == params.size
        views = [a for l in model.layer_list for a in (l.weights, l.bias)]
        assert all(np.shares_memory(a, params) for a in views)
        assert np.concatenate([a.ravel() for a in views]).tobytes() == params.tobytes()
        params[...] = np.arange(params.size)  # a write through params reaches every layer
        assert np.concatenate([a.ravel() for a in views]).tobytes() == params.tobytes()
        # nothing that a caller keeps shares the model's memory
        clone = model.copy()
        assert not any(np.shares_memory(a, params)
                       for l in clone.layer_list for a in (l.weights, l.bias))
        ckpt = save_checkpoint(model, {}, tmp_path / "m.ckpt")
        assert not np.shares_memory(ckpt.params, params)
        assert not np.shares_memory(model.flat_parameters(), params)
        assert not np.shares_memory(restore_for_transfer(ckpt, spec).params, ckpt.params)


def stored_features(spec, start):
    """(model, stage start's input for 3 random windows, their labels)."""
    model = build_model(spec, 1)
    x = np.random.default_rng(1).normal(size=(3, spec.input_length))
    return model, run_stages(model, x, stop=start), np.array([1.0, 0.0, 1.0])


class TestBackwardStart:
    @pytest.mark.parametrize("spec, start, want", [
        (TINY_MLP, 0, [False, False, False, True]),
        (TINY_MLP, 2, [False, True]),
        (TINY_CNN, 4, [False, True]),
    ], ids=["mlp", "mlp_from_stage_2", "cnn_frozen_conv"])
    def test_first_trained_dense_layer_skips_its_input_gradient(self, spy, spec, start, want):
        model, h, y = stored_features(spec, start)
        calls = spy(L, "dense_backward_batch")
        batch_loss_and_grads(model, h, y, start)
        assert [call.result[2] is None for call in calls] == want

    @pytest.mark.parametrize("spec, start", [(TINY_CNN, 0), (TINY_CNN, 4), (TINY_MLP, 0),
                                             (TINY_MLP, 2)],
                             ids=["cnn", "cnn_frozen_conv", "mlp", "mlp_from_stage_2"])
    def test_layer_gradients_are_views_of_one_vector(self, spec, start):
        """Each trained layer's (d_weights, d_bias) sits in the gradient
        vector where the layer's weights and bias sit in params; the entries
        of the stages below start are zero."""
        model, h, y = stored_features(spec, start)
        _, grads, _, vector = batch_loss_and_grads(model, h, y, start)
        assert vector.dtype == np.float64 and vector.shape == model.params.shape
        assert grads[:start] == [None] * start

        def at(a, base):  # a's first entry, as an index into base
            return (a.ctypes.data - base.ctypes.data) // base.itemsize

        for pair, layer in zip(grads[start:], model.layer_list[start:]):
            for g, p in zip(pair, (layer.weights, layer.bias)):
                assert np.shares_memory(g, vector) and g.flags.c_contiguous
                assert (g.shape, at(g, vector)) == (p.shape, at(p, model.params))
        assert not vector[: model.offsets[start]].any()


def assert_same_step(want, got, start):
    """Steps (loss, grads, probs) from stage 0 (want) and from stage start (got)
    have the same bytes, on grads[start:]; got's grads below start are None."""
    (loss, grads, probs, _), (s_loss, s_grads, s_probs, _) = want, got
    assert np.float64(s_loss).tobytes() == np.float64(loss).tobytes()
    assert s_probs.tobytes() == probs.tobytes()
    assert s_grads[:start] == [None] * start
    for (w, b), (s_w, s_b) in zip(grads[start:], s_grads[start:]):
        assert s_w.tobytes() == w.tobytes()
        assert s_b.tobytes() == b.tobytes()


class TestStoredFeatures:
    @pytest.mark.parametrize("batch", [32, 16, 7])
    def test_head_step_from_stored_features_is_bytes_equal(self, tiny_target_dataset, batch):
        model = build_model(CNN_SPEC, 2)
        x, y = tiny_target_dataset.to_arrays()
        head = len(CNN_SPEC.blocks)
        stored = run_stages(model, x, stop=head)  # one pass over all 60 windows
        sel = np.random.default_rng(batch).permutation(len(y))[:batch]
        want = batch_loss_and_grads(model, x[sel], y[sel])
        got = batch_loss_and_grads(model, stored[sel], y[sel], head)
        assert_same_step(want, got, head)

    @pytest.mark.parametrize("spec", [TINY_CNN, TINY_MLP, CNN_SPEC],
                             ids=["tiny_cnn", "tiny_mlp", "cnn"])
    def test_every_start_stage_is_bytes_equal(self, spec):
        model = build_model(spec, 2)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, spec.input_length))
        y = (rng.random(12) < 0.5).astype(np.float64)
        sel = rng.permutation(12)[:7]
        want = batch_loss_and_grads(model, x[sel], y[sel])
        for k in range(len(model.layer_list)):
            stored = run_stages(model, x, stop=k)
            got = batch_loss_and_grads(model, stored[sel], y[sel], k)
            assert_same_step(want, got, k)
            probs = forward_batch(model, stored, start=k)
            assert probs.tobytes() == forward_batch(model, x).tobytes()


def contiguous_conv_forward(x, layer):
    """Layout oracle: the batched conv as it ran on (B, C, L)-contiguous
    activations, before they were stored channels-last."""
    b, _, length = x.shape
    out_len = length - layer.kernel_size + 1
    cols = sliding_window_view(x, layer.kernel_size, axis=2)  # (B, C, T, K)
    cols = np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(b * out_len, -1)
    out = cols @ layer.weights.reshape(layer.out_channels, -1).T + layer.bias
    return out.reshape(b, out_len, layer.out_channels).transpose(0, 2, 1), cols


def contiguous_conv_backward(grad_out, cols, layer):
    """(d_weights, d_bias) of the conv on (B, C, L)-contiguous activations."""
    b, _, out_len = grad_out.shape
    g_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 1)).reshape(b * out_len, -1)
    return (g_mat.T @ cols).reshape(layer.weights.shape), g_mat.sum(axis=0)


def contiguous_maxpool(x, width, stride):
    """(output, argmax) of a max pool on (B, C, L), by np.argmax."""
    windows = sliding_window_view(x, width, axis=2)[:, :, ::stride]
    arg = windows.argmax(axis=3)
    out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]
    return np.ascontiguousarray(out), arg + np.arange(arg.shape[2]) * stride


def flat(a, t_major):
    """(N, C, T) flattened to (N, features) position by position (T-major)
    or channel by channel (C-major)."""
    return (a.transpose(0, 2, 1) if t_major else a).reshape(len(a), -1)


class TestChannelsLastLayout:
    @pytest.mark.parametrize("spec", [TINY_CNN, CNN_SPEC], ids=["tiny_cnn", "cnn"])
    @pytest.mark.parametrize("batch", [1, 2, 7, 32])
    def test_conv_stages_are_bytes_equal_to_contiguous_oracle(self, spec, batch):
        model = build_model(spec, 3)
        rng = np.random.default_rng(batch)
        h = rng.normal(size=(batch, spec.input_length))  # stage 0 standardizes its raw windows
        x = standardize(h)[:, None, :]  # the oracle's (B, C, L) activation
        for i, blk in enumerate(spec.blocks):
            layer = model.layer_list[i]
            t_major = i + 1 < len(spec.blocks)  # C-major into the dense head only
            caches = []
            out = run_stages(model, h, i, i + 1, caches)
            pre, cols = contiguous_conv_forward(x, layer)
            want, argmax = contiguous_maxpool(L.relu_forward(pre), blk.pool_width,
                                              blk.pool_stride)
            assert out.tobytes() == flat(want, t_major).tobytes()
            g = rng.normal(size=want.shape)
            grads = Model(spec, np.empty(model.params.size))
            models._conv_backward(model, flat(g, t_major), caches, i, grads)
            d_w, d_b = grads.layer_list[i].weights, grads.layer_list[i].bias
            d_pre = add_at_maxpool_backward(g, argmax, pre.shape[2]) * (pre > 0)
            r_w, r_b = contiguous_conv_backward(d_pre, cols, layer)
            assert d_w.tobytes() == r_w.tobytes()
            assert d_b.tobytes() == r_b.tobytes()
            h, x = out, want


class TestBatchSizeInvariance:
    """Chunked inference, train()'s frozen-feature store and the gradient
    check's grouped replay all rely on one property of the BLAS (OpenBLAS has
    it): a window's conv-stage output has the same bytes in any batch of two
    or more windows.  A BLAS without it fails here first."""

    def test_conv_rows_do_not_depend_on_the_batch(self):
        model = build_model(CNN_SPEC, 2)
        x = np.random.default_rng(7).normal(size=(70, CNN_SPEC.input_length))
        head = len(CNN_SPEC.blocks)
        want = run_stages(model, x, stop=head, caches=[])  # caches: one unchunked pass
        for n in range(2, 70):
            got = run_stages(model, x[-n:], stop=head, caches=[])
            assert got.tobytes() == want[-n:].tobytes(), f"batch of {n}"

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 66, 129, 1000, 1001])
    def test_chunked_forward_equals_one_pass(self, spy, n):
        model = build_model(CNN_SPEC, 2)
        x = np.random.default_rng(n).normal(size=(n, CNN_SPEC.input_length))
        h = x
        for i in range(len(model.layer_list)):
            h = run_stages(model, h, i, i + 1, [])  # caches: one unchunked pass
        assert run_stages(model, x).tobytes() == h.tobytes()  # logits: dense rows unchunked
        calls = spy(L, "conv_forward_batch")
        assert forward_batch(model, x).tobytes() == L.sigmoid(h[:, 0]).tobytes()
        sizes = [len(c.args[0]) for c in calls if c.args[1] is model.layer_list[0]]
        full = max(0, (n - 2) // CONV_CHUNK)  # a 1-window tail joins the last chunk
        chunks = [CONV_CHUNK] * full + [n - full * CONV_CHUNK]
        # each chunk of 2 * HALF_WINDOWS or more windows runs as two halves, on two threads
        halves = [s for c in chunks
                  for s in ((c // 2, c - c // 2) if c >= 2 * models.HALF_WINDOWS else (c,))]
        assert sorted(sizes) == sorted(halves)
        assert min(sizes) >= 2 or n == 1


KERNELS = ["conv_forward_batch", "conv_backward_batch", "maxpool_forward_batch",
           "maxpool_backward_batch", "relu_forward", "relu_backward", "dense_forward_batch",
           "dense_backward_batch"]
POSITIONAL_SHAPES = dict(conv_forward_batch=2, conv_backward_batch=4, maxpool_forward_batch=1,
                         maxpool_backward_batch=3, dense_forward_batch=2, dense_backward_batch=3)


class TestKernelCalls:
    @pytest.mark.parametrize("spec, start, want", [
        (TINY_CNN, 0, dict(conv_forward_batch=4, maxpool_forward_batch=4, relu_forward=5,
                           dense_forward_batch=2, dense_backward_batch=2, relu_backward=5,
                           maxpool_backward_batch=4, conv_backward_batch=7)),
        (TINY_CNN, 2, dict(conv_forward_batch=2, maxpool_forward_batch=2, relu_forward=3,
                           dense_forward_batch=2, dense_backward_batch=2, relu_backward=3,
                           maxpool_backward_batch=2, conv_backward_batch=3)),
        (TINY_CNN, 4, dict(relu_forward=1, dense_forward_batch=2, dense_backward_batch=2,
                           relu_backward=1)),
        (TINY_MLP, 0, dict(relu_forward=3, dense_forward_batch=4, dense_backward_batch=4,
                           relu_backward=3)),
        (TINY_MLP, 2, dict(relu_forward=1, dense_forward_batch=2, dense_backward_batch=2,
                           relu_backward=1)),
    ], ids=["cnn", "cnn_from_stage_2", "cnn_frozen_conv", "mlp", "mlp_from_stage_2"])
    def test_one_step_calls_each_kernel_as_often_as_its_stages(self, spy, spec, start, want):
        model, h, y = stored_features(spec, start)
        calls = {name: spy(L, name) for name in KERNELS}
        batch_loss_and_grads(model, h, y, start)
        assert {name: len(c) for name, c in calls.items() if c} == want
        # no call makes the input gradient of stage start, which nothing reads
        first = model.layer_list[start]
        assert all(c.result[2] is None for c in calls["conv_backward_batch"] if c.args[2] is first)
        # perfbench reads the shapes from positional arguments; buffers come by keyword
        for name, n_args in POSITIONAL_SHAPES.items():
            assert all(len(c.args) >= n_args for c in calls[name]), name


def rewrite_metadata(path, meta_blob: bytes) -> None:
    """Replace a checkpoint's metadata block and recompute its CRC."""
    blob = path.read_bytes()
    head = len(CKPT_MAGIC) + 4 + 32
    (count,) = struct.unpack_from("<Q", blob, head)
    body = blob[: head + 8 + 8 * count] + struct.pack("<I", len(meta_blob)) + meta_blob
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


# metadata blocks a loader must refuse, each with the check that refuses it
MALFORMED_METADATA = {
    b"{not json": "metadata is not valid JSON",
    b"\xff\xfe": "metadata is not valid JSON",
    b"[1, 2]": "metadata carries no spec",
    b"{}": "metadata carries no spec",
    b'{"spec": "cnn"}': "metadata carries no spec",
    b'{"spec": {"kind": "cnn"}}': "malformed spec in metadata",
    b'{"spec": {"kind": "mlp", "hidden_dims": [8, "x", 4]}}': "malformed spec in metadata",
    b'{"spec": {"kind": "cnn", "blocks": [[8, 7, 2, 0], [1, 1, 1, 1], [1, 1, 1, 1], '
    b'[1, 1, 1, 1]], "hidden_dim": 4}}': "malformed spec in metadata",
    b"[" * 100_000: "metadata is not valid JSON",
}


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
        for spec in (TINY_MLP, TINY_CNN):
            model = build_model(spec, 9)
            path = tmp_path / "m.ckpt"
            save_checkpoint(model, {"init_seed": 9}, path)
            ckpt = load_checkpoint(path)
            restored = restore_for_transfer(ckpt, spec)
            assert restored.flat_parameters().tobytes() == model.flat_parameters().tobytes()
            restored.layer_list[0].weights += 1.0  # the model owns its arrays
            assert ckpt.params.tobytes() == model.flat_parameters().tobytes()

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
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        model = build_model(TINY_MLP, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(CKPT_MAGIC), 99)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError,
                           match=f"checkpoint version 99, expected {CKPT_VERSION}"):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"garbage bytes here")
        with pytest.raises(CheckpointError, match="too short to be a checkpoint file"):
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

    @pytest.mark.parametrize("meta", list(MALFORMED_METADATA))
    def test_malformed_metadata_is_corrupt(self, tmp_path, meta):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(TINY_MLP, 9), {}, path)
        rewrite_metadata(path, meta)
        with pytest.raises(CheckpointError, match=MALFORMED_METADATA[meta]):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec", [TINY_MLP, TINY_CNN], ids=["mlp", "cnn"])
    def test_bytes_equal_reference_encoder(self, tmp_path, spec):
        model = build_model(spec, 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {"init_seed": 9, "note": "é"}, path)
        assert path.read_bytes() == reference_checkpoint(model, {"init_seed": 9, "note": "é"})

    @settings(max_examples=100, deadline=None)
    @given(draw=st.data())
    def test_any_truncation_is_corrupt(self, ckpt_blob, tmp_path_factory, draw):
        path = tmp_path_factory.mktemp("cut") / "m.ckpt"
        path.write_bytes(ckpt_blob[: draw.draw(st.integers(0, len(ckpt_blob) - 1))])
        with pytest.raises(CheckpointError, match="too short to be a checkpoint file|truncated"):
            load_checkpoint(path)

    def test_load_holds_one_copy_of_the_file(self, tmp_path):
        model = build_model(CNN_SPEC, 0)
        path = tmp_path / "cnn.ckpt"
        save_checkpoint(model, {"init_seed": 0}, path)
        ckpt, peak = traced_peak(load_checkpoint, path)
        assert peak <= 1.25 * path.stat().st_size
        assert ckpt.params.tobytes() == model.params.tobytes()

    def test_a_dataset_is_refused_from_its_head(self, tmp_path):
        path = tmp_path / "d.dataset"
        write_dataset(synthetic_dataset(1000), path)

        def refused():
            with pytest.raises(CheckpointError, match="bad magic"):
                load_checkpoint(path)

        _, peak = traced_peak(refused)
        assert peak < path.stat().st_size / 100


def reference_checkpoint(model: Model, metadata: dict) -> bytes:
    """The file bytes as a struct.pack writer lays them out: magic | version |
    fingerprint | count | f64 params | meta_len | metadata | crc32."""
    meta = json.dumps({**metadata, "spec": model.spec.to_dict()}, sort_keys=True).encode()
    params = model.flat_parameters()
    body = (CKPT_MAGIC + struct.pack("<I32sQ", CKPT_VERSION, fingerprint(model.spec), params.size)
            + struct.pack(f"<{params.size}d", *params) + struct.pack("<I", len(meta)) + meta)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def ckpt_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(build_model(TINY_CNN, 9), {"init_seed": 9}, path)
    return path.read_bytes()
