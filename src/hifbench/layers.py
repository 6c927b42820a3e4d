"""From-scratch 1D layer kernels: forward and backward passes.

The *_batch functions operate on (batch, channels, length) arrays; training,
inference and the gradient checks run them.  The conv activations and
gradients they return are views of channels-last (B, L, C) buffers, the
layout in which im2col rows and matmul outputs lie.  The kernels can write
into buffers their caller allocated (keyword arguments such as out, cols
and d_w): models runs the conv, ReLU and pool kernels on two window halves
at once, each half filling its rows.  They give a window's rows the same bytes
whatever other windows share the call (the conv matmuls, with OpenBLAS, in
calls of 2 or more windows).  The dense matmuls do not, and the conv weight
and bias gradients sum over the windows, so those run on the whole batch.

conv_forward is the one single-sample kernel, kept as an oracle: it
accumulates on a (channels, length) array in a fixed order (innermost kernel
index fastest), so it is bit-equal to a naive nested-loop evaluation.
Batched conv goes through im2col-style matmuls, whose summation order cannot
be fixed, so it agrees with conv_forward only to floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(0.0, np.asarray(x, dtype=np.float64), out=out)


def relu_backward(grad_out: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != np.shape(x):
        raise ShapeError("gradient shape does not match cached input")
    return np.multiply(grad_out, np.asarray(x) > 0, out=out)


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


def conv_forward_batch(x: np.ndarray, layer: ConvLayer, *, cols: np.ndarray | None = None,
                       out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched conv on (B, C, L); returns (output, im2col cache for backward).

    cols (B*T, C*K) and out (B, T, out_channels), C-contiguous, receive the
    im2col matrix and the channels-last output when given.
    """
    b, c, length = x.shape
    if c != layer.in_channels or length < layer.kernel_size:
        raise ShapeError("batched input incompatible with conv layer")
    k = layer.kernel_size
    out_len = conv_output_length(length, k)
    # row b*T + t is x[b, :, t : t + K], in the weights' (C, K) order: one
    # strided write per kernel offset
    cols = np.empty((b * out_len, c * k)) if cols is None else cols
    slabs = cols.reshape(b, out_len, c, k)
    x_last = x.transpose(0, 2, 1)
    for i in range(k):
        slabs[..., i] = x_last[:, i : i + out_len]
    out = np.empty((b, out_len, layer.out_channels)) if out is None else out
    rows = out.reshape(b * out_len, -1)
    np.matmul(cols, layer.weights.reshape(layer.out_channels, -1).T, out=rows)
    rows += layer.bias
    return out.transpose(0, 2, 1), cols


def conv_backward_batch(
    grad_out: np.ndarray, cols: np.ndarray | None, layer: ConvLayer, input_shape: tuple,
    input_grad: bool = True, *, d_cols: np.ndarray | None = None, out: np.ndarray | None = None,
    d_w: np.ndarray | None = None, d_b: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """(d_weights, d_bias, d_input).

    d_weights and d_bias, which sum over every window, are made when cols is
    given, d_input when input_grad is True.  C-contiguous buffers receive
    them when given: d_w and d_b, and d_cols (B*T, C*K) and out (B, L, C),
    the input gradient's im2col matrix and its channels-last layout.
    """
    b, _, out_len = grad_out.shape
    g_mat = grad_out.transpose(0, 2, 1).reshape(b * out_len, -1)
    d_x = None
    if cols is not None:
        rows = None if d_w is None else d_w.reshape(layer.out_channels, -1)
        d_w = np.matmul(g_mat.T, cols, out=rows).reshape(layer.weights.shape)
        d_b = np.sum(g_mat, axis=0, out=d_b)
    if input_grad:
        if d_cols is None:
            d_cols = np.empty((b * out_len, layer.in_channels * layer.kernel_size))
        np.matmul(g_mat, layer.weights.reshape(layer.out_channels, -1), out=d_cols)
        slabs = d_cols.reshape(b, out_len, layer.in_channels, layer.kernel_size)
        d_x = np.empty((b, input_shape[2], layer.in_channels)) if out is None else out
        d_x.fill(0.0)
        for i in range(layer.kernel_size):
            d_x[:, i : i + out_len] += slabs[..., i]
        d_x = d_x.transpose(0, 2, 1)
    return d_w, d_b, d_x


def maxpool_forward_batch(
    x: np.ndarray, width: int, stride: int, *, out: np.ndarray | None = None,
    offset: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched max pool on (B, C, L); returns (output, winning offset in each window).

    Window t covers x[..., t*stride : t*stride + width]; its offset is the
    position of its maximum within it, the first one on ties, as argmax
    picks it.  out (float64) and offset (np.min_scalar_type(width - 1)), of
    the output's shape in any layout, receive them when given.
    """
    x = np.asarray(x, dtype=np.float64)
    if width < 1 or stride < 1:
        raise ShapeError("width and stride must be positive")
    if width > x.shape[2]:
        raise ShapeError("pool width exceeds input length")
    span = (pool_output_length(x.shape[2], width, stride) - 1) * stride + 1
    if out is None:
        out = x[..., 0:span:stride].copy(order="K")  # in x's layout
    else:
        np.copyto(out, x[..., 0:span:stride])
    out_bits = out.view(np.int64)
    if offset is None:
        offset = np.empty_like(out, dtype=np.min_scalar_type(width - 1))
    offset.fill(0)
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
    grad_out: np.ndarray, offset: np.ndarray, input_length: int, width: int, stride: int,
    *, out: np.ndarray | None = None,
) -> np.ndarray:
    """Route each window's gradient to its winning input position.

    Positions shared by overlapping windows receive the windows' gradients
    summed in window order, the order np.add.at would use, so the result has
    the same bytes (-0.0 gradients included, which the +0.0 start absorbs).
    out, a (B, C, input_length) float64 array in any layout, receives the
    result when given.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    b, c, out_len = grad_out.shape
    span = (out_len - 1) * stride + 1
    grad_bits = grad_out.view(np.int64)
    d_x = np.empty((b, input_length, c)).transpose(0, 2, 1) if out is None else out
    d_x.fill(0.0)
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
    grad_out: np.ndarray, x: np.ndarray, layer: DenseLayer, input_grad: bool = True, *,
    d_w: np.ndarray | None = None, d_b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(d_weights, d_bias, d_input), the first two into d_w and d_b when given;
    d_input is None when input_grad is False."""
    d_w = np.matmul(grad_out.T, x, out=d_w)
    d_b = np.sum(grad_out, axis=0, out=d_b)
    return d_w, d_b, grad_out @ layer.weights if input_grad else None
