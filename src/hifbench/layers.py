"""From-scratch 1D layer kernels: forward and backward passes.

The *_batch functions operate on (batch, channels, length) arrays; training,
inference and the gradient checks run them.  The conv activations and
gradients they return are views of channels-last (B, L, C) buffers, the
layout in which im2col rows and matmul outputs lie.  conv_forward is the one
single-sample kernel, kept as an oracle: it accumulates on a (channels,
length) array in a fixed order (innermost kernel index fastest), so it is
bit-equal to a naive nested-loop evaluation.  Batched conv goes through
im2col-style matmuls, whose summation order cannot be fixed, so it agrees
with conv_forward only to floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

EPS_PROB = 1e-12


class ShapeError(ValueError):
    """Input shape incompatible with a layer."""


@dataclass
class ConvLayer:
    weights: np.ndarray  # (out_channels, in_channels, kernel_size)
    bias: np.ndarray  # (out_channels,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("conv layer wants weights (out, in, k) and bias (out,)")
        if self.weights.shape[2] < 1:
            raise ShapeError("kernel_size must be at least 1")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("dense layer wants weights (out, in) and bias (out,)")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


def conv_output_length(length: int, kernel_size: int) -> int:
    return length - kernel_size + 1


def pool_output_length(length: int, width: int, stride: int) -> int:
    return (length - width) // stride + 1


def conv_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Valid cross-correlation, stride 1, on one (channels, length) sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != layer.in_channels:
        raise ShapeError(f"expected ({layer.in_channels}, L) input, got {x.shape}")
    if x.shape[1] < layer.kernel_size:
        raise ShapeError("input shorter than the kernel")
    out_len = conv_output_length(x.shape[1], layer.kernel_size)
    # accumulate channel-major, kernel-index-minor: bit-equal to the naive
    # quadruple loop with the innermost index fastest
    out = np.repeat(layer.bias[:, None], out_len, axis=1)
    for c in range(layer.in_channels):
        for i in range(layer.kernel_size):
            out += layer.weights[:, c, i][:, None] * x[c, i : i + out_len][None, :]
    return out


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.asarray(x, dtype=np.float64))


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != np.shape(x):
        raise ShapeError("gradient shape does not match cached input")
    return grad_out * (np.asarray(x) > 0)


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def bce_loss(y_hat: np.ndarray, y: np.ndarray):
    """Mean BCE, probabilities clipped to [eps, 1-eps]; per row for a stack (..., m) of rows."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y_hat.shape[-1:] != y.shape:
        raise ShapeError("predictions and labels must have the same length")
    if y_hat.size == 0:
        raise ShapeError("cannot compute a loss over zero samples")
    p = np.clip(y_hat, EPS_PROB, 1.0 - EPS_PROB)
    loss = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def sigmoid_bce_backward(y_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean BCE at the sigmoid pre-activation: (y_hat - y) / m."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape or y_hat.size == 0:
        raise ShapeError("predictions and labels must share a nonzero length")
    return (y_hat - y) / y_hat.size


# ---------------------------------------------------------------------------
# Batched kernels (training path)
# ---------------------------------------------------------------------------


def conv_forward_batch(x: np.ndarray, layer: ConvLayer) -> tuple[np.ndarray, np.ndarray]:
    """Batched conv on (B, C, L); returns (output, im2col cache for backward)."""
    b, c, length = x.shape
    if c != layer.in_channels or length < layer.kernel_size:
        raise ShapeError("batched input incompatible with conv layer")
    out_len = conv_output_length(length, layer.kernel_size)
    # row b*T + t is x[b, :, t : t + K], in the weights' (C, K) order
    cols = sliding_window_view(x.transpose(0, 2, 1), layer.kernel_size, axis=1)
    cols = cols.reshape(b * out_len, -1)
    out = cols @ layer.weights.reshape(layer.out_channels, -1).T
    out += layer.bias  # in place: `+ bias` would allocate a second (B*T, O) array
    return out.reshape(b, out_len, layer.out_channels).transpose(0, 2, 1), cols


def conv_backward_batch(
    grad_out: np.ndarray, cols: np.ndarray, layer: ConvLayer, input_shape: tuple,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(d_weights, d_bias, d_input); d_input is None when input_grad is False."""
    b, _, out_len = grad_out.shape
    g_mat = grad_out.transpose(0, 2, 1).reshape(b * out_len, -1)
    d_w = (g_mat.T @ cols).reshape(layer.weights.shape)
    d_b = g_mat.sum(axis=0)
    if not input_grad:
        return d_w, d_b, None
    d_cols = (g_mat @ layer.weights.reshape(layer.out_channels, -1)).reshape(
        b, out_len, layer.in_channels, layer.kernel_size
    )
    d_x = np.zeros((b, input_shape[2], layer.in_channels))
    for i in range(layer.kernel_size):
        d_x[:, i : i + out_len] += d_cols[..., i]
    return d_w, d_b, d_x.transpose(0, 2, 1)


def maxpool_forward_batch(
    x: np.ndarray, width: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched max pool on (B, C, L); returns (output, winning offset in each window).

    Window t covers x[..., t*stride : t*stride + width]; its offset is the
    position of its maximum within it, the first one on ties, as argmax
    picks it.
    """
    x = np.asarray(x, dtype=np.float64)
    if width < 1 or stride < 1:
        raise ShapeError("width and stride must be positive")
    if width > x.shape[2]:
        raise ShapeError("pool width exceeds input length")
    span = (pool_output_length(x.shape[2], width, stride) - 1) * stride + 1
    out = x[..., 0:span:stride].copy(order="K")  # in x's layout
    out_bits = out.view(np.int64)
    offset = np.zeros_like(out, dtype=np.min_scalar_type(width - 1))
    for i in range(1, width):
        cand = x[..., i : i + span : stride]
        # argmax's rule: a larger value wins, ties keep the earlier offset,
        # and the first NaN wins over numbers and is never displaced
        better = cand <= out
        np.logical_not(better, out=better)
        better &= out == out
        # out = np.where(better, cand, out) on the bits: the same bytes, but
        # no branch per element to mispredict on a random mask
        flip = cand.view(np.int64) ^ out_bits
        flip &= np.negative(better, dtype=np.int64)
        out_bits ^= flip
        # i exceeds every offset recorded so far
        np.maximum(offset, better * offset.dtype.type(i), out=offset)
    return out, offset


def maxpool_backward_batch(
    grad_out: np.ndarray, offset: np.ndarray, input_length: int, width: int, stride: int
) -> np.ndarray:
    """Route each window's gradient to its winning input position.

    Positions shared by overlapping windows receive the windows' gradients
    summed in window order, the order np.add.at would use, so the result has
    the same bytes (-0.0 gradients included, which the +0.0 start absorbs).
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    b, c, out_len = grad_out.shape
    span = (out_len - 1) * stride + 1
    grad_bits = grad_out.view(np.int64)
    d_x = np.zeros((b, input_length, c)).transpose(0, 2, 1)
    # a later window reaches a given position through a smaller offset
    for i in range(width - 1, -1, -1):
        # the gradient where offset == i, +0.0 elsewhere, selected on the bits
        routed = np.negative(offset == i, dtype=np.int64)
        routed &= grad_bits
        d_x[..., i : i + span : stride] += routed.view(np.float64)
    return d_x


def dense_forward_batch(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    if x.ndim < 2 or x.shape[-1] != layer.in_dim:
        raise ShapeError(f"expected (..., B, {layer.in_dim}) input, got {x.shape}")
    return x @ layer.weights.T + layer.bias


def dense_backward_batch(
    grad_out: np.ndarray, x: np.ndarray, layer: DenseLayer, input_grad: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(d_weights, d_bias, d_input); d_input is None when input_grad is False."""
    d_w = grad_out.T @ x
    d_b = grad_out.sum(axis=0)
    return d_w, d_b, grad_out @ layer.weights if input_grad else None
