"""Model assembly: the fixed 4-block CNN and 4-layer MLP, initialization,
forward and backward passes, and versioned checkpoints carrying an
architecture fingerprint (the transfer-learning handoff unit).

A network is a list of stages, one per entry of layer_list: a conv block
(conv -> ReLU -> max pool) or a dense layer (with a ReLU unless it is the
output layer).  _conv_forward and _conv_backward run a chain of conv blocks,
run_stage one stage.  run_stages and backward_batch run the list from any
stage k, given that stage's input, and backward stops at the stage its
forward pass started from; training, its frozen-feature store and the
gradient checks all go through them.  Features enter conv blocks T-major (a
free view of channels-last activations) and the dense head C-major.

The per-window work of the conv blocks runs on two window halves at once,
one on the calling thread and one on a single worker thread (_in_halves);
the results have the same bytes as one pass over the whole batch:
- OpenBLAS gives a window's conv rows the same bytes in any call of 2 or
  more windows, and each half has at least 2 (batches of 2 or 3 windows run
  as one part);
- a dense matmul's rows depend on how many rows share the call, so dense
  stages run on the whole batch;
- the conv weight and bias gradients sum over the windows, so each is one
  call on the whole batch, for a batch of any size.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import json
import math
import os
import queue
import struct
import threading
import zlib
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import layers as L
from .fileio import write_atomic

INPUT_LENGTH = 300
STD_FLOOR = 1e-8
CONV_CHUNK = 64  # windows per conv pass of a forward that keeps no caches

CKPT_MAGIC = b"HIFCKPT\x01"
CKPT_VERSION = 1


class SpecError(ValueError):
    """Architecture spec that cannot produce a valid network."""


class CheckpointError(Exception):
    """Base class for checkpoint file problems."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


class FingerprintMismatchError(CheckpointError):
    """Checkpoint architecture does not match the requested spec."""


@dataclass(frozen=True)
class ConvBlockSpec:
    out_channels: int
    kernel_size: int
    pool_width: int
    pool_stride: int


@dataclass(frozen=True)
class CnnSpec:
    blocks: tuple[ConvBlockSpec, ...] = (
        ConvBlockSpec(8, 7, 2, 2),
        ConvBlockSpec(16, 5, 2, 2),
        ConvBlockSpec(32, 5, 2, 2),
        ConvBlockSpec(32, 3, 2, 2),
    )
    hidden_dim: int = 64
    output_dim: int = 1
    input_length: int = INPUT_LENGTH

    def __post_init__(self):
        if len(self.blocks) != 4:
            raise SpecError("the CNN has exactly 4 conv blocks")
        widths = [self.hidden_dim, *(v for blk in self.blocks for v in astuple(blk))]
        if any(not isinstance(v, int) or v < 1 for v in widths):
            raise SpecError("hidden_dim and every conv block field must be integers of at least 1")
        if self.output_dim != 1:
            raise SpecError("the output layer is a single sigmoid unit")
        self.feature_lengths()  # raises if the shape algebra collapses

    def feature_lengths(self) -> list[int]:
        """Length after each conv and each pool, starting from the input."""
        lengths = [self.input_length]
        length = self.input_length
        for blk in self.blocks:
            length = L.conv_output_length(length, blk.kernel_size)
            if length < 1:
                raise SpecError("conv output length collapsed below 1")
            lengths.append(length)
            length = L.pool_output_length(length, blk.pool_width, blk.pool_stride)
            if length < 1:
                raise SpecError("pool output length collapsed below 1")
            lengths.append(length)
        return lengths

    @property
    def flat_dim(self) -> int:
        return self.blocks[-1].out_channels * self.feature_lengths()[-1]

    def to_dict(self) -> dict:
        return {
            "kind": "cnn",
            "blocks": [
                [b.out_channels, b.kernel_size, b.pool_width, b.pool_stride] for b in self.blocks
            ],
            "hidden_dim": self.hidden_dim,
            "output_dim": self.output_dim,
            "input_length": self.input_length,
        }


@dataclass(frozen=True)
class MlpSpec:
    hidden_dims: tuple[int, int, int] = (128, 64, 32)
    input_length: int = INPUT_LENGTH

    def __post_init__(self):
        if len(self.hidden_dims) != 3 or any(h < 1 for h in self.hidden_dims):
            raise SpecError("the MLP has exactly 4 dense layers (3 hidden widths)")
        if self.input_length < 1:
            raise SpecError("input_length must be at least 1")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_length, *self.hidden_dims, 1]
        return list(zip(dims[:-1], dims[1:]))

    def to_dict(self) -> dict:
        return {
            "kind": "mlp",
            "hidden_dims": list(self.hidden_dims),
            "input_length": self.input_length,
        }


def spec_from_dict(d: dict) -> "CnnSpec | MlpSpec":
    if not isinstance(d, dict):
        raise SpecError("a spec is a JSON object")
    kind = d.get("kind")
    try:
        if kind == "cnn":
            return CnnSpec(
                blocks=tuple(ConvBlockSpec(*b) for b in d["blocks"]),
                hidden_dim=int(d["hidden_dim"]),
                output_dim=int(d.get("output_dim", 1)),
                input_length=int(d.get("input_length", INPUT_LENGTH)),
            )
        if kind == "mlp":
            return MlpSpec(
                hidden_dims=tuple(int(h) for h in d["hidden_dims"]),
                input_length=int(d.get("input_length", INPUT_LENGTH)),
            )
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:  # a block of another arity, or a non-integer width
        raise SpecError(f"malformed {kind} spec: {exc}") from exc
    raise SpecError(f"unknown spec kind: {kind!r}")


def fingerprint(spec) -> bytes:
    """SHA-256 of the canonical spec document; 32 bytes."""
    return hashlib.sha256(json.dumps(spec.to_dict(), sort_keys=True).encode()).digest()


@dataclass
class Model:
    spec: "CnnSpec | MlpSpec"
    layer_list: list

    def pool(self, i: int) -> tuple[int, int] | None:
        """(width, stride) of stage i's max pool; None for a dense stage or past the last."""
        if i >= len(self.layer_list) or not isinstance(self.layer_list[i], L.ConvLayer):
            return None
        blk = self.spec.blocks[i]
        return blk.pool_width, blk.pool_stride

    def channels(self, i: int, out: np.ndarray) -> np.ndarray:
        """(..., B, O, T) view of stage i's output (..., B, features): each of
        its O output units over T positions (T = 1 for a dense stage)."""
        n_out = self.layer_list[i].bias.size
        if self.pool(i + 1) is None:  # C-major
            return out.reshape(*out.shape[:-1], n_out, -1)
        return out.reshape(*out.shape[:-1], -1, n_out).swapaxes(-1, -2)

    @property
    def n_conv(self) -> int:
        """Number of conv stages, which lead layer_list."""
        return sum(isinstance(l, L.ConvLayer) for l in self.layer_list)

    def parameter_count(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layer_list)

    def flat_parameters(self) -> np.ndarray:
        parts = []
        for l in self.layer_list:
            parts.append(l.weights.ravel())
            parts.append(l.bias.ravel())
        return np.concatenate(parts)

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.parameter_count():
            raise CheckpointCorruptError(
                f"parameter vector has {flat.size} entries, model needs {self.parameter_count()}"
            )
        offset = 0
        for l in self.layer_list:
            for arr in (l.weights, l.bias):
                arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size

    def copy(self) -> "Model":
        layer_list = [replace(l, weights=l.weights.copy(), bias=l.bias.copy())
                      for l in self.layer_list]
        return Model(self.spec, layer_list)


def _layer_shapes(spec) -> list[tuple[type, tuple[int, ...]]]:
    """(layer class, weight shape) of each layer, in layer_list order."""
    shapes: list = []
    if isinstance(spec, CnnSpec):
        in_channels = 1
        for blk in spec.blocks:
            shapes.append((L.ConvLayer, (blk.out_channels, in_channels, blk.kernel_size)))
            in_channels = blk.out_channels
        dense_dims = [(spec.flat_dim, spec.hidden_dim), (spec.hidden_dim, spec.output_dim)]
    elif isinstance(spec, MlpSpec):
        dense_dims = spec.layer_dims
    else:
        raise SpecError(f"unknown spec type: {type(spec).__name__}")
    shapes += [(L.DenseLayer, (out_dim, in_dim)) for in_dim, out_dim in dense_dims]
    return shapes


def build_model(spec, init_seed: int) -> Model:
    """He-initialized weights, zero biases; deterministic in init_seed."""
    rng = np.random.default_rng(np.random.SeedSequence([init_seed, 0x1417]))
    layer_list = []
    for cls, shape in _layer_shapes(spec):
        fan_in = math.prod(shape[1:])
        try:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        except (MemoryError, ValueError) as exc:  # ValueError: more elements than an index holds
            raise SpecError(f"layer of shape {shape} is too large to allocate: {exc}") from None
        layer_list.append(cls(w, np.zeros(shape[0])))
    return Model(spec, layer_list)


def standardize(x: np.ndarray) -> np.ndarray:
    """Per-window z-score; removes absolute amplitude as a shortcut feature."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    std = np.maximum(x.std(axis=-1, keepdims=True), STD_FLOOR)
    return (x - mean) / std


# ---------------------------------------------------------------------------
# Window halves
# ---------------------------------------------------------------------------


class _Worker:
    """One daemon thread that runs the calls put to it, in order."""

    def __init__(self):
        self.calls: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="hifbench-half", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._run(*self.calls.get())

    @staticmethod
    def _run(fn, reply) -> None:
        # a frame of its own, so that the call's buffers are freed when it returns
        try:
            reply.put((fn(), None))
        except BaseException as exc:  # handed to the caller, which raises it
            reply.put((None, exc))


_worker: _Worker | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """A forked child inherits the worker object but not its thread."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _both(here, there) -> tuple:
    """(here(), there()): there() runs on the one worker thread, started on
    first use, in a copy of the caller's context (so np.errstate holds there
    too), while here() runs on the calling thread."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = _Worker()
        worker = _worker
    reply: queue.SimpleQueue = queue.SimpleQueue()
    worker.calls.put((functools.partial(contextvars.copy_context().run, there), reply))
    try:
        first = here()
    except BaseException:
        reply.get()  # the worker may still be writing into the caller's buffers
        raise
    second, exc = reply.get()
    if exc is not None:
        raise exc
    return first, second


def _in_halves(n: int, fn, split: bool = True) -> None:
    """fn(lo, hi) over windows 0..n-1: windows [0, n//2) here and [n//2, n)
    on the worker thread, or fn(0, n) here alone when n < 4 or not split.
    Each part then has 2 windows or more, so OpenBLAS gives its conv rows
    the bytes of one pass over all n."""
    if n < 4 or not split:
        fn(0, n)
    else:
        _both(lambda: fn(0, n // 2), lambda: fn(n // 2, n))


def _rows(buf: np.ndarray, lo: int, hi: int, *shape: int) -> np.ndarray:
    """Windows lo..hi-1 of a per-window buffer buf (n, width), as one
    C-contiguous (hi - lo, *shape) array of each window's first prod(shape)
    entries.  Parts of disjoint window ranges never overlap, so a buffer
    as wide as the widest stage serves every stage."""
    width = buf.shape[1]
    return buf.reshape(-1)[lo * width : lo * width + (hi - lo) * math.prod(shape)].reshape(
        hi - lo, *shape)


def _conv_geometry(model: Model, stages: range, features: int) -> list[tuple[int, ...]]:
    """(C, L, K, O, T, pooled length) of each conv stage, the first on inputs
    of `features` values."""
    geo = []
    for i in stages:
        layer = model.layer_list[i]
        c, k, o = layer.in_channels, layer.kernel_size, layer.out_channels
        length = features // c
        t = L.conv_output_length(length, k)
        geo.append((c, length, k, o, t, L.pool_output_length(t, *model.pool(i))))
        features = o * geo[-1][5]
    return geo


def _own(n: int, sizes: list[int], dtype=np.float64) -> list[np.ndarray]:
    """One (n, size) buffer per stage."""
    return [np.empty((n, size), dtype) for size in sizes]


def _shared(n: int, sizes: list[int], k: int = 1) -> list[np.ndarray]:
    """k buffers as wide as the widest stage, taken by the stages in turn."""
    bufs = [np.empty((n, max(sizes, default=0))) for _ in range(k)]
    return [bufs[j % k] for j in range(len(sizes))]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _conv_forward(model: Model, h: np.ndarray, start: int, stop: int,
                  caches: list | None) -> np.ndarray:
    """Conv stages start..stop-1 on h (..., B, features): the output of stage
    stop-1, (..., B, features').  With a list caches, appends each stage's
    cache to it.

    Each window half runs the whole chain into its rows of buffers allocated
    here, on the calling thread (a worker's own malloc arena would add to the
    process's peak memory).  A stacked input runs as one part.  Without
    caches, the stages share their im2col and pre-activation buffers, the
    ReLU runs in place, and the stage outputs alternate between two buffers.
    """
    n = math.prod(h.shape[:-1])
    stages = range(start, stop)
    geo = _conv_geometry(model, stages, h.shape[-1])
    col_sizes = [t * c * k for c, _, k, _, t, _ in geo]
    pre_sizes = [t * o for *_, o, t, _ in geo]
    out_sizes = [o * tp for *_, o, _, tp in geo]
    keep = caches is not None
    if keep:
        cols, pre, outs = _own(n, col_sizes), _own(n, pre_sizes), _own(n, out_sizes)
        act = _shared(n, pre_sizes)
    else:
        cols, pre = _shared(n, col_sizes), _shared(n, pre_sizes)
        act, outs = pre, _shared(n, out_sizes[:-1], 2) + _own(n, out_sizes[-1:])
    offsets = [np.empty((n, size), np.min_scalar_type(model.pool(i)[0] - 1))
               for i, size in zip(stages, out_sizes)]
    x = h.reshape(n, -1)

    def chain(lo, hi):
        y, m = x[lo:hi], hi - lo
        for j, (i, (c, length, k, o, t, tp)) in enumerate(zip(stages, geo)):
            conv, _ = L.conv_forward_batch(
                y.reshape(m, length, c).transpose(0, 2, 1), model.layer_list[i],
                cols=_rows(cols[j], lo, hi, t * c, k).reshape(m * t, c * k),
                out=_rows(pre[j], lo, hi, t, o))
            relu = L.relu_forward(conv, _rows(act[j], lo, hi, t, o).transpose(0, 2, 1))
            c_major = model.pool(i + 1) is None  # into the dense head
            out = _rows(outs[j], lo, hi, *((o, tp) if c_major else (tp, o)))
            L.maxpool_forward_batch(relu, *model.pool(i),
                                    out=out if c_major else out.transpose(0, 2, 1),
                                    offset=_rows(offsets[j], lo, hi, tp, o).transpose(0, 2, 1))
            y = out.reshape(m, -1)

    _in_halves(n, chain, split=h.ndim == 2)
    if keep:
        for j, (c, length, k, o, t, tp) in enumerate(geo):
            caches.append((h, pre[j].reshape(n, t, o).transpose(0, 2, 1),
                           cols[j].reshape(n * t, c * k),
                           offsets[j].reshape(n, tp, o).transpose(0, 2, 1)))
            h = outs[j]
    return outs[-1].reshape(*h.shape[:-1], -1)


def _conv_backward(model: Model, grad: np.ndarray, caches: list, start: int,
                   input_grad: bool) -> tuple[list, np.ndarray | None]:
    """([(d_weights, d_bias)] of conv stages start..start+len(caches)-1,
    d_input of stage start or None) from grad (B, features), the gradient of
    the last stage's output.  Overwrites each cache's pre-activation with
    its gradient.

    Each window half routes its gradient down the chain (pool, ReLU mask,
    d_cols matmul, col2im) into its rows of buffers allocated here.  The
    weight and bias gradients, which sum over the windows, are then one call
    each on the whole batch: on the calling thread for fewer than 4 windows,
    else shared out between the two threads, the call that makes a stage's
    gradient being the same on either.
    """
    n = len(grad)
    stages = range(start, start + len(caches))
    geo = _conv_geometry(model, stages, caches[0][0].shape[-1])
    wants = [i > start or input_grad for i in stages]  # whose input gradient to make
    # each stage's pool gradient, then, once the ReLU mask has moved it into
    # the cache, the stage's d_cols
    work = _shared(n, [t * max(o, c * k * w) for (c, _, k, o, t, _), w in zip(geo, wants)])[0]
    d_in = [np.empty((n, length * c)) if w else None for (c, length, *_), w in zip(geo, wants)]

    def chain(lo, hi):
        g, m = grad[lo:hi], hi - lo
        for j in reversed(range(len(stages))):
            i, (c, length, k, o, t, tp) = stages[j], geo[j]
            _, pre, _, offset = caches[j]
            d_pre = L.maxpool_backward_batch(
                model.channels(i, g), offset[lo:hi], t, *model.pool(i),
                out=_rows(work, lo, hi, t, o).transpose(0, 2, 1))
            d_pre = L.relu_backward(d_pre, pre[lo:hi], pre[lo:hi])
            if not wants[j]:
                break  # stage start, whose input gradient nothing reads
            L.conv_backward_batch(d_pre, None, model.layer_list[i], (m, c, length), True,
                                  d_cols=_rows(work, lo, hi, t * c, k).reshape(m * t, c * k),
                                  out=_rows(d_in[j], lo, hi, length, c))
            g = d_in[j][lo:hi]

    _in_halves(n, chain)
    grads: list = [None] * len(stages)

    def reduce(share):
        for j in share:
            (c, length, *_), (_, d_pre, cols, _) = geo[j], caches[j]
            grads[j] = L.conv_backward_batch(d_pre, cols, model.layer_list[stages[j]],
                                             (n, c, length), False)[:2]

    if n < 4:
        reduce(range(len(stages)))
    else:
        # the costliest reductions first, each to the less loaded thread
        cost = [c * k * o * t for c, _, k, o, t, _ in geo]
        shares, loads = ([], []), [0, 0]
        for j in sorted(range(len(stages)), key=lambda j: -cost[j]):
            lighter = loads.index(min(loads))
            shares[lighter].append(j)
            loads[lighter] += cost[j]
        _both(lambda: reduce(shares[0]), lambda: reduce(shares[1]))
    return grads, d_in[0]


def run_stage(model: Model, i: int, h: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Stage i on a stack h (..., B, features) of its inputs: (output, cache).

    A conv block views h as (N, in_channels, length) and runs conv -> ReLU ->
    max pool; its output is flattened back to (..., B, features).  A dense
    layer is followed by a ReLU, except the output layer, whose output is the
    logit.  The cache holds the stage input, then the pre-activation, then,
    for a conv block, the im2col matrix and the pool offsets.
    """
    layer = model.layer_list[i]
    if model.pool(i) is None:
        pre = L.dense_forward_batch(h, layer)
        out = L.relu_forward(pre) if i < len(model.layer_list) - 1 else pre
        return out, (h, pre)
    caches: list = []
    out = _conv_forward(model, h, i, i + 1, caches)
    return out, caches[0]


def run_stages(model: Model, h: np.ndarray, start: int = 0, stop: int | None = None,
               caches: list | None = None) -> np.ndarray:
    """Output of stages start..stop-1 (to the end by default), which is the
    input of stage stop, from h, the input of stage start.

    Stage 0's input is a (B, input_length) batch of raw windows, which are
    standardized before stage 0 runs.  With a list caches, appends each
    stage's cache to it.  Without, conv stages run in chunks of CONV_CHUNK
    windows (never 1, so OpenBLAS gives one pass's bytes), dense stages
    unchunked.  Conv stages run on two window halves at once (see
    _conv_forward); dense stages, whose matmul bytes depend on the batch,
    run on the whole batch.
    """
    stop = len(model.layer_list) if stop is None else stop
    if start == 0 < stop:
        h = np.atleast_2d(np.asarray(h, dtype=np.float64))
        if h.shape[-1] != model.spec.input_length:
            raise L.ShapeError(f"windows must have {model.spec.input_length} samples")
    dense = max(start, min(stop, model.n_conv))
    if caches is None and dense > start and h.shape[-2] > CONV_CHUNK + 1:
        # a 1-window tail joins the last chunk; standardize works window by window
        parts = np.split(h, range(CONV_CHUNK, h.shape[-2] - 1, CONV_CHUNK), axis=-2)
        h = np.concatenate([run_stages(model, p, start, dense) for p in parts], axis=-2)
        return run_stages(model, h, dense, stop)
    if start == 0 < stop:
        h = standardize(h)
    if dense > start:
        h = _conv_forward(model, h, start, dense, caches)
    for i in range(dense, stop):
        h, cache = run_stage(model, i, h)
        if caches is not None:
            caches.append(cache)
        del cache  # else it would live on while the next stage runs
    return h


def forward_batch(model: Model, x: np.ndarray, want_cache: bool = False, start: int = 0):
    """Probabilities for a (B, input_length) batch of raw windows, or, with
    start=k, for x holding stage k's input.

    With want_cache=True also returns the list of stage caches, stages
    start..end, that backward_batch needs.
    """
    caches = [] if want_cache else None
    logits = run_stages(model, x, start, caches=caches)
    probs = L.sigmoid(logits[..., 0])
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activation in forward pass")
    return (probs, caches) if want_cache else probs


def forward(model: Model, window: np.ndarray) -> float:
    """HIF probability for a single raw window."""
    return float(forward_batch(model, np.asarray(window)[None, :])[0])


def backward_batch(model: Model, caches: list, probs: np.ndarray, y: np.ndarray) -> list:
    """Mean-BCE gradients, aligned with model.layer_list.

    Backpropagation stops at the stage k the caches' forward pass started
    from: the layers below it get None, and stage k skips its input
    gradient, which nothing reads.  The caches are used up: each conv
    stage's pre-activation is overwritten by its gradient.
    """
    n = len(model.layer_list)
    start = n - len(caches)
    dense = max(start, model.n_conv)
    grads: list = [None] * n
    grad = L.sigmoid_bce_backward(probs, y)[:, None]
    for i in range(n - 1, dense - 1, -1):
        h, pre = caches[i - start]
        if i < n - 1:  # the output layer has no ReLU
            grad = L.relu_backward(grad, pre)
        d_w, d_b, grad = L.dense_backward_batch(grad, h, model.layer_list[i], i > start)
        grads[i] = (d_w, d_b)
    if dense > start:
        grads[start:dense], _ = _conv_backward(model, grad, caches[: dense - start], start, False)
    return grads


def batch_loss_and_grads(model: Model, x: np.ndarray, y: np.ndarray, start: int = 0):
    """(loss, grads, probs) of one step on x, the input of stage start."""
    probs, caches = forward_batch(model, x, want_cache=True, start=start)
    loss = L.bce_loss(probs, y)
    grads = backward_batch(model, caches, probs, y)
    return loss, grads, probs


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    fingerprint: bytes
    params: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def spec(self):
        return spec_from_dict(self.metadata["spec"])


def save_checkpoint(model: Model, metadata: dict, path) -> Checkpoint:
    meta = dict(metadata)
    meta["spec"] = model.spec.to_dict()
    params = model.flat_parameters()
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    chunks = [
        CKPT_MAGIC + struct.pack("<I", CKPT_VERSION) + fingerprint(model.spec)
        + struct.pack("<Q", params.size),
        np.ascontiguousarray(params, dtype="<f8"),
        struct.pack("<I", len(meta_blob)) + meta_blob,
    ]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_atomic(path, [*chunks, struct.pack("<I", crc)])
    return Checkpoint(fingerprint(model.spec), params, meta)


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    head = len(CKPT_MAGIC) + 4 + 32 + 8
    if len(blob) < head + 8 or blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointCorruptError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, len(CKPT_MAGIC))
    if version != CKPT_VERSION:
        raise CheckpointVersionError(f"{path}: checkpoint version {version} unsupported")
    fp = blob[len(CKPT_MAGIC) + 4 : len(CKPT_MAGIC) + 36]
    (count,) = struct.unpack_from("<Q", blob, len(CKPT_MAGIC) + 36)
    offset = head
    if len(blob) < offset + 8 * count + 8:
        raise CheckpointCorruptError(f"{path}: truncated parameter block")
    params = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).copy()
    offset += 8 * count
    (meta_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if len(blob) != offset + meta_len + 4:
        raise CheckpointCorruptError(f"{path}: truncated metadata block")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(memoryview(blob)[:-4]) != stored_crc:
        raise CheckpointCorruptError(f"{path}: checksum mismatch")
    try:
        metadata = json.loads(blob[offset : offset + meta_len].decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise CheckpointCorruptError(f"{path}: metadata is not valid JSON") from exc
    if not isinstance(metadata, dict) or not isinstance(metadata.get("spec"), dict):
        raise CheckpointCorruptError(f"{path}: metadata carries no spec")
    ckpt = Checkpoint(fp, params, metadata)
    try:
        spec = ckpt.spec
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise CheckpointCorruptError(f"{path}: malformed spec in metadata: {exc}") from exc
    if fingerprint(spec) != fp:
        raise FingerprintMismatchError(f"{path}: metadata spec does not match fingerprint")
    needed = sum(math.prod(shape) + shape[0] for _, shape in _layer_shapes(spec))
    if needed != count:  # before restore_for_transfer allocates the spec's layers
        raise CheckpointCorruptError(f"{path}: spec needs {needed} parameters, file has {count}")
    return ckpt


def restore_for_transfer(ckpt: Checkpoint, target_spec) -> Model:
    """Model with the checkpoint's parameters, ready for fine-tuning."""
    if fingerprint(target_spec) != ckpt.fingerprint:
        raise FingerprintMismatchError("checkpoint fingerprint does not match the target spec")
    layer_list = [cls(np.empty(shape), np.empty(shape[0]))
                  for cls, shape in _layer_shapes(target_spec)]
    model = Model(target_spec, layer_list)
    model.set_flat_parameters(ckpt.params)
    return model
