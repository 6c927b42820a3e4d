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
from hifbench.models import CnnSpec, ConvBlockSpec, Model, build_model, standardize

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
    models.run_stages, which the code under test uses.
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


def _assert_bytes_match(spec, got, want):
    got = Model(spec, got).layer_list  # raises on another size
    assert len(want) == len(got)
    for g, (w_w, w_b) in zip(got, want):
        assert g.weights.tobytes() == w_w.tobytes() and g.bias.tobytes() == w_b.tobytes()


class TestColumnProbes:
    @pytest.mark.parametrize("spec", [TINY_CNN, TINY_MLP, OVERLAP_CNN],
                             ids=["tiny_cnn", "tiny_mlp", "overlap_cnn"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_match_one_probe_replay(self, spec, seed):
        model = build_model(spec, seed)
        x, y = find_check_point(model, seed=seed)
        _assert_bytes_match(spec, numeric_gradients(model, x, y),
                            one_probe_numeric_gradients(model, x, y))

    # 1: one probe per replay; 400: groups of 3 probes in the hidden dense
    # layer, some holding +epsilon and -epsilon probes together
    @pytest.mark.parametrize("group_bytes", [1, 400])
    def test_small_groups_give_the_same_bytes(self, monkeypatch, group_bytes):
        import hifbench.gradcheck as G

        model = build_model(TINY_CNN, 0)
        x, y = find_check_point(model, seed=0)
        want = one_probe_numeric_gradients(model, x, y)
        monkeypatch.setattr(G, "GROUP_BYTES", group_bytes)
        _assert_bytes_match(TINY_CNN, numeric_gradients(model, x, y), want)

    def test_oracle_does_not_run_the_stage_list(self, monkeypatch):
        import hifbench.gradcheck as G
        import hifbench.models as M

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not share the code under test")

        for module in (M, G):
            monkeypatch.setattr(module, "run_stages", forbidden)
            monkeypatch.setattr(module, "_run_stages", forbidden)
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


def _log_runs(monkeypatch, edit=None):
    """Log numeric_gradients' calls into models: ("run", stage, output) for
    each run of the probed stage, through edit(stage, call, output) if given,
    and ("replay", stage + 1, stack) for each replay to the loss."""
    import hifbench.gradcheck as G

    log, calls = [], {}
    real_run, real_replay = G._run_stages, G.run_stages

    def run(model, h, start, stop, *args, **kwargs):
        out = real_run(model, h, start, stop, *args, **kwargs)
        calls[start] = calls.get(start, -1) + 1
        if edit is not None:
            out = edit(start, calls[start], out)
        log.append(("run", start, out.copy()))
        return out

    def replay(model, h, start, *args, **kwargs):
        log.append(("replay", start, h.copy()))
        return real_replay(model, h, start, *args, **kwargs)

    monkeypatch.setattr(G, "_run_stages", run)
    monkeypatch.setattr(G, "run_stages", replay)
    return log


def _blocks(model, log):
    """[(stage, moved pairs per window, groups per replay)] per block of
    columns: its columns' stage runs, then its replays.  A stage's first run
    is its unperturbed output, and the replay after it that output's."""
    blocks, base = [], {}
    for kind, stage, arr in log:
        if kind == "run" and stage not in base:
            base[stage], base_replay = arr, True
        elif kind == "run":
            if not blocks or blocks[-1][2]:  # a run after replays starts a block
                blocks.append([stage, 0, []])
            diff = arr.view(np.int64) != base[stage].view(np.int64)
            blocks[-1][1] += model.channels(stage, diff).any(-1).sum(-1)  # (B,)
        elif base_replay:
            assert arr.tobytes() == base[stage - 1].tobytes()
            base_replay = False
        else:
            assert arr.shape[1:] == base[stage - 1].shape  # groups of B windows
            blocks[-1][2].append(len(arr))
    return [tuple(b) for b in blocks]


class TestMovedWindows:
    """numeric_gradients replays only the windows whose stage output a probe
    moved, in groups of B windows."""

    @pytest.mark.parametrize("spec", [TINY_CNN, TINY_MLP, OVERLAP_CNN],
                             ids=["tiny_cnn", "tiny_mlp", "overlap_cnn"])
    @pytest.mark.parametrize("n_win", [2, 3])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_bytes_match_one_probe_replay_at_random_points(self, spec, n_win, seed):
        """Unscreened points, where more probes cross a kink.  At 3 windows,
        a dense row's bytes depend on its row in the matmul, so a moved
        window keeps its own."""
        model = build_model(spec, seed)
        x = np.random.default_rng(seed).normal(size=(n_win, spec.input_length))
        y = np.resize([1.0, 0.0], n_win)
        _assert_bytes_match(spec, numeric_gradients(model, x, y),
                            one_probe_numeric_gradients(model, x, y))

    # "column": one column per block; with 400 bytes, 3 groups per replay in
    # the hidden dense layer, so that one column's moved windows need 4
    # replays, the last with 1 group, and one window moved less than the other
    @pytest.mark.parametrize("block_bytes, group_bytes", [(1, 400), (1 << 30, 400), (1, 1),
                                                          (1 << 30, 1 << 19)],
                             ids=["column", "stage", "column_one_group", "stage_default_group"])
    def test_replays_the_moved_windows_plus_padding(self, monkeypatch, block_bytes,
                                                    group_bytes):
        import hifbench.gradcheck as G

        model = build_model(TINY_CNN, 0)
        x, y = find_check_point(model, seed=0)
        want = one_probe_numeric_gradients(model, x, y)
        monkeypatch.setattr(G, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(G, "GROUP_BYTES", group_bytes)
        log = _log_runs(monkeypatch)
        _assert_bytes_match(TINY_CNN, numeric_gradients(model, x, y), want)
        blocks = _blocks(model, log)
        assert {stage for stage, *_ in blocks} == set(range(len(model.layer_list)))
        for stage, moved, stacks in blocks:
            # one group per pair that moved window 0 or per pair that moved
            # window 1, whichever are more; the other window's slots hold pads
            assert sum(stacks) == moved.max(), (stage, moved, stacks)
            assert len(set(stacks[:-1])) <= 1 and stacks[-1:] <= stacks[:1]
        if (block_bytes, group_bytes) == (1, 400):
            assert any(len(stacks) >= 2 and stacks[-1] < stacks[0] and moved.min() < moved.max()
                       for _, moved, stacks in blocks)
        # fewer groups than probes: some probes moved no window at all
        probes = sum(2 * l.bias.size * (l.weights[0].size + 1) for l in model.layer_list)
        assert sum(sum(stacks) for *_, stacks in blocks) < probes

    def test_a_zero_whose_sign_flipped_is_replayed(self, monkeypatch):
        """-0.0 == 0.0, yet a flipped zero is a moved output."""
        model = build_model(TINY_MLP, 0)
        x, y = find_check_point(model, seed=0)
        stage = 1
        dead = None

        def flip(start, call, out):
            nonlocal dead
            if start == stage and call == 0:  # the unperturbed output
                dead = tuple(np.argwhere(out == 0.0)[0])
                assert not np.signbit(out[dead])
            elif start == stage and call == 1:  # the first column's +FD_EPSILON
                assert out[dead] == 0.0 and not np.signbit(out[dead])
                out = out.copy()
                out[dead] = -0.0
            return out

        log = _log_runs(monkeypatch, flip)
        numeric_gradients(model, x, y)
        unit = dead[1]
        rows = [stack.reshape(-1, stack.shape[-1]) for kind, start, stack in log
                if kind == "replay" and start == stage + 1]
        assert any(np.signbit(r[:, unit]).any() for r in rows[1:])  # not in the base replay


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

        def wrong(*args, d_w, **kwargs):
            out = real(*args, d_w=d_w, **kwargs)
            d_w *= 1.01
            return out

        model = build_model(TINY_MLP, 1)
        x, y = find_check_point(model, seed=1)
        monkeypatch.setattr(L, "dense_backward_batch", wrong)
        monkeypatch.setattr(M.L, "dense_backward_batch", wrong)
        assert grad_check(model, x, y) > 1e-4

    def test_detects_a_broken_conv_gradient(self, monkeypatch):
        import hifbench.models as M

        real = L.conv_backward_batch

        def wrong(*args, d_w=None, **kwargs):
            out = real(*args, d_w=d_w, **kwargs)
            if d_w is not None:  # None: an input-gradient call
                d_w *= 1.01
            return out

        model = build_model(TINY_CNN, 1)
        x, y = find_check_point(model, seed=1)
        monkeypatch.setattr(M.L, "conv_backward_batch", wrong)
        assert grad_check(model, x, y) > 1e-4

    def test_nan_gradient_fails(self, monkeypatch):
        import hifbench.models as M

        real = L.dense_backward_batch

        def nan_for_one_weight(*args, d_w, **kwargs):
            out = real(*args, d_w=d_w, **kwargs)
            d_w.flat[0] = np.nan
            return out

        model = build_model(TINY_MLP, 1)
        x, y = find_check_point(model, seed=1)
        monkeypatch.setattr(M.L, "dense_backward_batch", nan_for_one_weight)
        assert grad_check(model, x, y) == np.inf

    def test_epsilon_default(self):
        assert FD_EPSILON == 1e-5
