import numpy as np
import pytest

from hifbench import layers as L
from hifbench.gradcheck import (
    FD_EPSILON,
    MIN_KINK_MARGIN,
    find_check_point,
    grad_check,
    kink_margin,
    numeric_gradients,
    relative_error,
)
from hifbench.models import CnnSpec, ConvBlockSpec, build_model, standardize

from test_models import TINY_CNN, TINY_MLP

# overlapping pools: a unit can win several windows
OVERLAP_CNN = CnnSpec(
    blocks=(ConvBlockSpec(2, 5, 3, 1), ConvBlockSpec(3, 3, 3, 1),
            ConvBlockSpec(2, 3, 3, 1), ConvBlockSpec(2, 3, 3, 1)),
    hidden_dim=5,
    input_length=30,
)


def _is_conv(model, i):
    return isinstance(model.layer_list[i], L.ConvLayer)


def _one_probe_stage_inputs(model, x):
    """Activation entering each layer of model.layer_list."""
    h = standardize(np.atleast_2d(x))
    if _is_conv(model, 0):
        h = h[:, None, :]
    inputs = []
    for i in range(len(model.layer_list)):
        inputs.append(h)
        h = _one_probe_layer(model, i, h)
    return inputs


def _one_probe_layer(model, i, h):
    """Layer i and what follows its kernel, on a (B, ...) batch."""
    layer = model.layer_list[i]
    if _is_conv(model, i):
        blk = model.spec.blocks[i]
        out, _ = L.conv_forward_batch(h, layer)
        h, _ = L.maxpool_forward_batch(L.relu_forward(out), blk.pool_width, blk.pool_stride)
        return h if _is_conv(model, i + 1) else h.reshape(h.shape[0], -1)
    pre = L.dense_forward_batch(h, layer)
    return L.relu_forward(pre) if i < len(model.layer_list) - 1 else pre


def one_probe_numeric_gradients(model, x, y, epsilon=FD_EPSILON):
    """Oracle: perturb one parameter at a time and replay layers stage..end.

    It restates the network's layers itself instead of calling
    models.run_stage or run_stages, which the code under test uses.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    probe = model.copy()
    stage_in = _one_probe_stage_inputs(probe, x)

    def loss_from(stage):
        h = stage_in[stage]
        for i in range(stage, len(probe.layer_list)):
            h = _one_probe_layer(probe, i, h)
        return L.bce_loss(L.sigmoid(h[:, 0]), y)

    grads = []
    for stage, layer in enumerate(probe.layer_list):
        pair = []
        for arr in (layer.weights, layer.bias):
            view, numeric = arr.reshape(-1), np.empty(arr.size)
            for j in range(view.size):
                orig = view[j]
                view[j] = orig + epsilon
                loss_plus = loss_from(stage)
                view[j] = orig - epsilon
                loss_minus = loss_from(stage)
                view[j] = orig
                numeric[j] = (loss_plus - loss_minus) / (2.0 * epsilon)
            pair.append(numeric.reshape(arr.shape))
        grads.append(tuple(pair))
    return grads


class TestRelativeError:
    def test_identical_values(self):
        assert relative_error(3.0, 3.0) == 0.0

    def test_scale_invariance(self):
        assert relative_error(1e6, 1.001e6) == pytest.approx(1e-3, rel=1e-2)

    def test_floor_prevents_blowup_near_zero(self):
        assert relative_error(0.0, 1e-12) <= 1e-4


class TestKinkScreening:
    def test_found_point_has_safe_margin(self):
        for spec in (TINY_CNN, TINY_MLP):
            model = build_model(spec, 0)
            x, y = find_check_point(model, seed=0)
            assert kink_margin(model, x) >= MIN_KINK_MARGIN
            assert x.shape == (2, spec.input_length)
            assert np.array_equal(y, [1.0, 0.0])

    def test_margin_detects_relu_boundary(self):
        model = build_model(TINY_MLP, 0)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, TINY_MLP.input_length))
        # push one first-layer pre-activation to the boundary
        layer = model.layer_list[0]
        from hifbench.models import standardize
        z = standardize(x)[0]
        layer.bias[0] = -float(layer.weights[0] @ z) + 1e-9
        assert kink_margin(model, x) <= 1e-8


class TestColumnProbes:
    @pytest.mark.parametrize("spec", [TINY_CNN, TINY_MLP, OVERLAP_CNN],
                             ids=["tiny_cnn", "tiny_mlp", "overlap_cnn"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_match_one_probe_replay(self, spec, seed):
        model = build_model(spec, seed)
        x, y = find_check_point(model, seed=seed)
        got = numeric_gradients(model, x, y)
        want = one_probe_numeric_gradients(model, x, y)
        assert len(got) == len(want) == len(model.layer_list)
        for (g_w, g_b), (w_w, w_b), layer in zip(got, want, model.layer_list):
            assert g_w.shape == layer.weights.shape and g_b.shape == layer.bias.shape
            assert g_w.tobytes() == w_w.tobytes()
            assert g_b.tobytes() == w_b.tobytes()

    # 1: one probe per replay; 400: groups of 3 probes in the hidden dense
    # layer, some holding +epsilon and -epsilon probes together
    @pytest.mark.parametrize("group_bytes", [1, 400])
    def test_small_groups_give_the_same_bytes(self, monkeypatch, group_bytes):
        import hifbench.gradcheck as G

        model = build_model(TINY_CNN, 0)
        x, y = find_check_point(model, seed=0)
        want = one_probe_numeric_gradients(model, x, y)
        monkeypatch.setattr(G, "GROUP_BYTES", group_bytes)
        for (g_w, g_b), (w_w, w_b) in zip(numeric_gradients(model, x, y), want):
            assert g_w.tobytes() == w_w.tobytes() and g_b.tobytes() == w_b.tobytes()

    def test_oracle_does_not_run_the_stage_list(self, monkeypatch):
        import hifbench.gradcheck as G
        import hifbench.models as M

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not share the code under test")

        for module in (M, G):
            monkeypatch.setattr(module, "run_stage", forbidden)
            monkeypatch.setattr(module, "run_stages", forbidden)
        for spec in (TINY_CNN, TINY_MLP):
            model = build_model(spec, 0)
            x = np.random.default_rng(0).normal(size=(2, spec.input_length))
            grads = one_probe_numeric_gradients(model, x, np.array([1.0, 0.0]))
            assert len(grads) == len(model.layer_list)

    def test_leaves_the_model_unchanged(self):
        model = build_model(TINY_CNN, 0)
        before = model.flat_parameters().tobytes()
        x, y = find_check_point(model, seed=0)
        numeric_gradients(model, x, y)
        assert model.flat_parameters().tobytes() == before


class TestGradCheck:
    def test_tiny_cnn_passes(self):
        model = build_model(TINY_CNN, 1)
        x, y = find_check_point(model, seed=1)
        assert grad_check(model, x, y) < 1e-4

    def test_tiny_mlp_passes(self):
        model = build_model(TINY_MLP, 1)
        x, y = find_check_point(model, seed=1)
        assert grad_check(model, x, y) < 1e-4

    def test_detects_a_broken_gradient(self, monkeypatch):
        # sabotage the dense backward to prove the check has teeth
        import hifbench.models as M

        real = L.dense_backward_batch

        def wrong(*args, **kwargs):
            d_w, d_b, d_x = real(*args, **kwargs)
            return d_w * 1.01, d_b, d_x

        model = build_model(TINY_MLP, 1)
        x, y = find_check_point(model, seed=1)
        monkeypatch.setattr(L, "dense_backward_batch", wrong)
        monkeypatch.setattr(M.L, "dense_backward_batch", wrong)
        assert grad_check(model, x, y) > 1e-4

    def test_detects_a_broken_conv_gradient(self, monkeypatch):
        import hifbench.models as M

        real = L.conv_backward_batch

        def wrong(*args, **kwargs):
            d_w, d_b, d_x = real(*args, **kwargs)
            return None if d_w is None else d_w * 1.01, d_b, d_x  # None: an input-gradient call

        model = build_model(TINY_CNN, 1)
        x, y = find_check_point(model, seed=1)
        monkeypatch.setattr(M.L, "conv_backward_batch", wrong)
        assert grad_check(model, x, y) > 1e-4

    def test_nan_gradient_fails(self, monkeypatch):
        import hifbench.models as M

        real = L.dense_backward_batch

        def nan_for_one_weight(*args, **kwargs):
            d_w, d_b, d_x = real(*args, **kwargs)
            d_w = d_w.copy()
            d_w.flat[0] = np.nan
            return d_w, d_b, d_x

        model = build_model(TINY_MLP, 1)
        x, y = find_check_point(model, seed=1)
        monkeypatch.setattr(M.L, "dense_backward_batch", nan_for_one_weight)
        assert grad_check(model, x, y) == np.inf

    def test_epsilon_default(self):
        assert FD_EPSILON == 1e-5
