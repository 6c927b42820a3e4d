"""Central finite-difference verification of the analytic gradients.

ReLU and max-pooling make the loss piecewise smooth, so a finite-difference
probe is only meaningful at evaluation points whose activations sit farther
from the nearest kink than the probe can reach.  kink_margin measures that
distance and find_check_point scans input seeds for a well-conditioned
point before any differencing happens.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import layers as L
from .models import Model, batch_loss_and_grads, forward_batch, standardize

FD_EPSILON = 1e-5
REL_DENOM_FLOOR = 1e-8
MIN_KINK_MARGIN = 3e-4


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_DENOM_FLOOR)


def kink_margin(model: Model, x: np.ndarray) -> float:
    """Distance from the nearest ReLU or max-pool decision boundary.

    Small margins mean a parameter perturbation can flip an argmax or a ReLU
    sign, which invalidates finite differences at that point.
    """
    _, cache = forward_batch(model, np.atleast_2d(x), want_cache=True)
    margin = np.inf
    if model.is_cnn:
        for blk, pre in zip(model.spec.blocks, cache["pre_relu"]):
            margin = min(margin, float(np.abs(pre).min()))
            act = L.relu_forward(pre)
            windows = sliding_window_view(act, blk.pool_width, axis=2)[:, :, :: blk.pool_stride, :]
            top2 = np.sort(windows, axis=3)[..., -2:]
            live = top2[..., 1] > 0  # ties among dead units stay at zero either way
            gaps = (top2[..., 1] - top2[..., 0])[live]
            if gaps.size:
                margin = min(margin, float(gaps.min()))
    pre_acts, _ = cache["head"]
    for pre in pre_acts[:-1]:
        margin = min(margin, float(np.abs(pre).min()))
    return margin


def find_check_point(
    model: Model,
    labels: np.ndarray | None = None,
    seed: int = 0,
    min_margin: float = MIN_KINK_MARGIN,
    max_tries: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Random (x, y) whose kink margin supports an eps=1e-5 probe."""
    if labels is None:
        labels = np.array([1.0, 0.0])
    best_x, best_margin = None, -np.inf
    for trial in range(max_tries):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        x = rng.normal(size=(labels.size, model.spec.input_length))
        m = kink_margin(model, x)
        if m >= min_margin:
            return x, labels
        if m > best_margin:
            best_x, best_margin = x, m
    return best_x, labels


def _stage_inputs(model: Model, x: np.ndarray) -> list[np.ndarray]:
    """Activation entering each stage; stage i holds exactly layer_list[i]."""
    z = standardize(np.atleast_2d(x))
    inputs = []
    if model.is_cnn:
        h = z[:, None, :]
        n_blocks = len(model.spec.blocks)
        for blk, conv in zip(model.spec.blocks, model.layer_list[:n_blocks]):
            inputs.append(h)
            out, _ = L.conv_forward_batch(h, conv)
            h, _ = L.maxpool_forward_batch(L.relu_forward(out), blk.pool_width, blk.pool_stride)
        flat = h.reshape(h.shape[0], -1)
        inputs.append(flat)
        hidden = L.relu_forward(L.dense_forward_batch(flat, model.layer_list[-2]))
        inputs.append(hidden)
    else:
        h = z
        for i, layer in enumerate(model.layer_list):
            inputs.append(h)
            pre = L.dense_forward_batch(h, layer)
            h = L.relu_forward(pre) if i < len(model.layer_list) - 1 else pre
    return inputs


def _loss_from_stage(model: Model, stage: int, h: np.ndarray, y: np.ndarray) -> float:
    """Run stages stage..end starting from activation h, return the loss."""
    if model.is_cnn:
        n_blocks = len(model.spec.blocks)
        i = stage
        while i < n_blocks:
            blk, conv = model.spec.blocks[i], model.layer_list[i]
            out, _ = L.conv_forward_batch(h, conv)
            h, _ = L.maxpool_forward_batch(L.relu_forward(out), blk.pool_width, blk.pool_stride)
            i += 1
        if stage <= n_blocks:
            h = h.reshape(h.shape[0], -1)
        if i == n_blocks:
            h = L.relu_forward(L.dense_forward_batch(h, model.layer_list[-2]))
            i += 1
        logits = L.dense_forward_batch(h, model.layer_list[-1])[:, 0]
    else:
        for i in range(stage, len(model.layer_list)):
            pre = L.dense_forward_batch(h, model.layer_list[i])
            h = L.relu_forward(pre) if i < len(model.layer_list) - 1 else pre
        logits = h[:, 0]
    return L.bce_loss(L.sigmoid(logits), y)


def grad_check(model: Model, x: np.ndarray, y: np.ndarray, epsilon: float = FD_EPSILON) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Every parameter is perturbed; recomputation starts at the perturbed
    layer, so the cost is dominated by the head where most parameters live.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    loss, grads, _ = batch_loss_and_grads(model, x, y)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss at the evaluation point")

    probe = model.copy()
    stage_in = _stage_inputs(probe, x)
    worst = 0.0
    for stage, layer in enumerate(probe.layer_list):
        analytic_w, analytic_b = grads[stage]
        h = stage_in[stage]
        for view, analytic in (
            (layer.weights.reshape(-1), np.asarray(analytic_w).ravel()),
            (layer.bias.reshape(-1), np.asarray(analytic_b).ravel()),
        ):
            for j in range(view.size):
                orig = view[j]
                view[j] = orig + epsilon
                loss_plus = _loss_from_stage(probe, stage, h, y)
                view[j] = orig - epsilon
                loss_minus = _loss_from_stage(probe, stage, h, y)
                view[j] = orig
                numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
                worst = max(worst, relative_error(analytic[j], numeric))
    return worst
