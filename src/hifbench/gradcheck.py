"""Central finite-difference verification of the analytic gradients.

ReLU and max-pooling make the loss piecewise smooth, so a finite-difference
probe is only meaningful at evaluation points whose activations sit farther
from the nearest kink than the probe can reach.  kink_margin measures that
distance and find_check_point scans input seeds for a well-conditioned
point before any differencing happens.

numeric_gradients probes a whole weight column W[:, j] (or the bias) per
kernel call: unit o reads only row o of W, so channel o holds the bytes the
single probe W[o, j] gives.  Each probe's stage output, the unperturbed one
with channel o (a Model.channels view) swapped in, joins a stack (P, B,
features) of about GROUP_BYTES that models.run_stages replays to the loss,
one call per later stage: conv on (P*B, C, L), dense on (P, B, F).  This
equals a one-probe replay byte for byte while a conv window's output has
the same bytes in any batch of two or more windows, as with OpenBLAS; at a
check point of one window (B=1) the last bit may differ.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import layers as L
from .models import Model, batch_loss_and_grads, forward_batch, run_stage, run_stages

FD_EPSILON = 1e-5
REL_DENOM_FLOOR = 1e-8
MIN_KINK_MARGIN = 3e-4
MAX_TRIES = 500  # input seeds find_check_point scans
GROUP_BYTES = 1 << 19  # stacked stage outputs replayed per call, about 0.5 MB


def relative_error(a, b):
    """|a - b| / max(|a|, |b|, REL_DENOM_FLOOR), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_DENOM_FLOOR)


def kink_margin(model: Model, x: np.ndarray) -> float:
    """Distance from the nearest ReLU or max-pool decision boundary.

    Small margins mean a parameter perturbation can flip an argmax or a ReLU
    sign, which invalidates finite differences at that point.
    """
    _, caches = forward_batch(model, np.atleast_2d(x), want_cache=True)
    margin = np.inf
    for i, (_, pre, *_) in enumerate(caches[:-1]):  # the output layer has no ReLU
        margin = min(margin, float(np.abs(pre).min()))
        pool = model.pool(i)
        if pool is None or pool[0] == 1:  # a width-1 pool passes every unit on
            continue
        width, stride = pool
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


def numeric_gradients(model: Model, x: np.ndarray,
                      y: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Central-difference (d_weights, d_bias) of the mean BCE at (x, y),
    aligned with model.layer_list."""
    probe = model.copy()  # contiguous arrays, so the column views below write through
    stage_in = [cache[0] for cache in forward_batch(probe, x, want_cache=True)[1]]
    grads = []
    for stage, (layer, h) in enumerate(zip(probe.layer_list, stage_in)):
        base = run_stage(probe, stage, h)[0]  # (B, O * length)
        n_out = layer.bias.size
        rows = np.arange(2 * n_out)  # a column's probes, +FD_EPSILON then -FD_EPSILON
        chunks = np.array_split(rows, -(-rows.size // max(1, GROUP_BYTES // base.nbytes)))
        weight_cols = layer.weights.reshape(n_out, -1)
        numeric = np.empty((n_out, weight_cols.shape[1] + 1))
        for j, col in enumerate([*weight_cols.T, layer.bias]):
            orig = col.copy()
            col_out = []
            for step in (FD_EPSILON, -FD_EPSILON):
                col[...] = orig + step
                col_out.append(run_stage(probe, stage, h)[0])
            col[...] = orig
            col_out = probe.channels(stage, np.stack(col_out))  # (2, B, O, T)
            losses = np.empty(rows.size)
            for chunk in chunks:
                stack = np.repeat(base[None], chunk.size, axis=0)
                units = probe.channels(stage, stack)  # a view of stack
                u = chunk % n_out
                units[np.arange(chunk.size), :, u] = col_out[chunk // n_out, :, u]
                logits = run_stages(probe, stack, stage + 1)
                losses[chunk] = L.bce_loss(L.sigmoid(logits[..., 0]), y)
            numeric[:, j] = (losses[:n_out] - losses[n_out:]) / (2.0 * FD_EPSILON)
        grads.append((numeric[:, :-1].reshape(layer.weights.shape), numeric[:, -1]))
    return grads


def grad_check(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Worst relative error between analytic and central-difference gradients
    over every parameter; inf when any gradient or error is not finite."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    loss, grads, _ = batch_loss_and_grads(model, x, y)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss at the evaluation point")
    numeric = numeric_gradients(model, x, y)
    # one output unit at a time: temporaries the size of a whole layer raised
    # the process's peak memory
    worst = np.max([relative_error(a, n).max() for pair_a, pair_n in zip(grads, numeric)
                    for g_a, g_n in zip(pair_a, pair_n) for a, n in zip(g_a, g_n)])
    # a NaN or inf gradient on either side makes its error, and so worst, NaN or inf
    return float(worst) if np.isfinite(worst) else np.inf
