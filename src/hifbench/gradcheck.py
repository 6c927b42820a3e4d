"""Central finite-difference verification of the analytic gradients.

ReLU and max-pooling make the loss piecewise smooth, so a finite-difference
probe is only meaningful at evaluation points whose activations sit farther
from the nearest kink than the probe can reach.  kink_margin measures that
distance and find_check_point scans input seeds for a well-conditioned
point before any differencing happens.

numeric_gradients fills a vector laid out like Model.params, probing a whole
weight column W[:, j] (or the bias) per stage run: unit o reads only row o
of W, so channel o holds the bytes the single probe W[o, j] gives.  The
probed stage k reruns through models._run_stages(model, h, k, k + 1) on its
input h = caches[k][0], from the list of stage caches that one forward_batch
fills, stage 0 on the standardized windows.  A probe's stage output is the
unperturbed one, base, with channel o (a Model.channels view) swapped in, so
it differs from base at most in the windows where channel o moved.  Those
are found bit by bit, through an int64 view, so that a zero whose sign
flipped counts as moved; every other window takes the logit that base's own
replay gives it.

Only the moved (probe, window) pairs are replayed to the loss, gathered over
a block of columns (about BLOCK_BYTES of stage outputs and logits) and both
steps into groups of B windows (B the check point's), slot b of a group
holding a pair of window b or, where window b moved less often, a pad: base's
window b, whose logit is dropped.  run_stages replays stacks (P, B, features)
of groups, P no more than the even split of one column's 2 * O probes into
stacks of at most GROUP_BYTES: conv on (P*B, C, L), dense on (P, B, F).  So every dense
matmul has B rows with each window in its own row, whose bytes depend on
both, and every conv call at least B windows.  Each probe's loss is then
bce_loss(sigmoid(logits), y) over its row of a per-block logit table.  This
equals a one-probe replay byte for byte while a conv window's output has the
same bytes in any batch of two or more windows, as with OpenBLAS; at a check
point of one window (B=1) the last bit may differ.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import layers as L
from .models import Model, _run_stages, batch_loss_and_grads, forward_batch, run_stages

FD_EPSILON = 1e-5
REL_DENOM_FLOOR = 1e-8
MIN_KINK_MARGIN = 3e-4
MAX_TRIES = 500  # input seeds find_check_point scans
GROUP_BYTES = 1 << 19  # stacked stage outputs replayed per call, about 0.5 MB
BLOCK_BYTES = 1 << 17  # probed columns' stage outputs and logits held at once, about 128 kB
CHECK_BLOCK = 1 << 10  # gradient entries compared per step


def relative_error(a, b):
    """|a - b| / max(|a|, |b|, REL_DENOM_FLOOR), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_DENOM_FLOOR)


def kink_margin(model: Model, x: np.ndarray) -> float:
    """Distance from the nearest ReLU or max-pool decision boundary.

    Small margins mean a parameter perturbation can flip an argmax or a ReLU
    sign, which invalidates finite differences at that point.
    """
    caches = []
    forward_batch(model, x, caches=caches)
    margin = np.inf
    for (_, pre, *_), stage in zip(caches[:-1], model.stages):  # the output layer has no ReLU
        margin = min(margin, float(np.abs(pre).min()))
        if stage.pool is None or stage.pool[0] == 1:  # a width-1 pool passes every unit on
            continue
        width, stride = stage.pool
        windows = sliding_window_view(L.relu_forward(pre), width, axis=2)[:, :, ::stride, :]
        top2 = np.sort(windows, axis=3)[..., -2:]
        live = top2[..., 1] > 0  # ties among dead units stay at zero either way
        gaps = (top2[..., 1] - top2[..., 0])[live]
        if gaps.size:
            margin = min(margin, float(gaps.min()))
    return margin


def find_check_point(model: Model, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random two-window (x, y = [1, 0]) whose kink margin supports an FD_EPSILON probe."""
    labels = np.array([1.0, 0.0])
    best_x, best_margin = None, -np.inf
    for trial in range(MAX_TRIES):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        x = rng.normal(size=(labels.size, model.spec.input_length))
        m = kink_margin(model, x)
        if m >= MIN_KINK_MARGIN:
            return x, labels
        if m > best_margin:
            best_x, best_margin = x, m
    return best_x, labels


def numeric_gradients(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the mean BCE at (x, y), a vector laid
    out like model.params."""
    probe = model.copy()  # contiguous arrays, so the column views below write through
    grads = Model(probe.spec, np.empty(probe.params.size))
    caches = []
    forward_batch(probe, x, caches=caches)
    for stage, (layer, d, (h, *_)) in enumerate(zip(probe.layer_list, grads.layer_list, caches)):
        base = _run_stages(probe, h, stage, stage + 1)  # (B, O * length)
        (n_win, width), n_out = base.shape, layer.bias.size
        base_logits = run_stages(probe, base[None], stage + 1)[0, :, 0]
        # groups per replay: as many as the even split of one column's 2 * O
        # probes into stacks of at most GROUP_BYTES, which bounds a conv replay's buffers
        per_replay = -(-2 * n_out // -(-2 * n_out // max(1, GROUP_BYTES // base.nbytes)))
        columns = [*layer.weights.reshape(n_out, -1).T, layer.bias]
        numeric = [*d.weights.reshape(n_out, -1).T, d.bias]
        per_block = max(1, BLOCK_BYTES // (16 * n_win * (width + 2 * n_out)))
        for lo in range(0, len(columns), per_block):
            outs = np.empty((len(columns[lo : lo + per_block]), 2, n_win, width))
            for col, out in zip(columns[lo:], outs):  # +FD_EPSILON, then -FD_EPSILON
                orig = col.copy()
                for step, o in zip((FD_EPSILON, -FD_EPSILON), out):
                    col[...] = orig + step
                    o[...] = _run_stages(probe, h, stage, stage + 1)
                col[...] = orig
            # bit by bit, so that a zero whose sign flipped counts as moved
            moved = probe.channels(stage, outs.view(np.int64) != base.view(np.int64)).any(-1)
            moved = moved.transpose(2, 0, 1, 3).reshape(n_win, -1)  # (B, columns * 2 * O)
            # slot b of a group holds a probe that moved window b, or -1: a pad,
            # window b unperturbed, whose logit is dropped
            groups = np.full((moved.sum(1).max(initial=0), n_win), -1)
            for b, m in enumerate(moved):
                probes = np.flatnonzero(m)
                groups[: probes.size, b] = probes
            units = probe.channels(stage, outs)  # (columns, 2, B, O, T)
            logits = np.empty((len(outs), 2, n_out, n_win))
            logits[...] = base_logits
            table = logits.reshape(-1, n_win)  # (columns * 2 * O, B)
            for part in (groups[i : i + per_replay] for i in range(0, len(groups), per_replay)):
                g, b = np.nonzero(part >= 0)
                c, s, u = np.unravel_index(part[g, b], logits.shape[:3])
                stack = np.repeat(base[None], len(part), axis=0)
                probe.channels(stage, stack)[g, b, u] = units[c, s, b, u]
                table[part[g, b], b] = run_stages(probe, stack, stage + 1)[g, b, 0]
            losses = L.bce_loss(L.sigmoid(logits), y)  # (columns, 2, O)
            for n, v in zip(numeric[lo:], (losses[:, 0] - losses[:, 1]) / (2.0 * FD_EPSILON)):
                n[...] = v
    return grads.params


def grad_check(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Worst relative error between analytic and central-difference gradients
    over every parameter; inf when any gradient or error is not finite."""
    loss, _, _, analytic = batch_loss_and_grads(model, x, y)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss at the evaluation point")
    numeric = numeric_gradients(model, x, y)
    # CHECK_BLOCK entries at a time: temporaries the size of a whole layer
    # raised the process's peak memory
    worst = np.max([relative_error(analytic[i : i + CHECK_BLOCK], numeric[i : i + CHECK_BLOCK])
                    .max() for i in range(0, analytic.size, CHECK_BLOCK)])
    # a NaN or inf gradient on either side makes its error, and so worst, NaN or inf
    return float(worst) if np.isfinite(worst) else np.inf
