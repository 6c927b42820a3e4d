"""Model assembly: the fixed 4-block CNN and 4-layer MLP, initialization,
forward and backward passes, and versioned checkpoints carrying an
architecture fingerprint and the spec checked against it once, on load
(the transfer-learning handoff unit).

A network is a list of stages, one per entry of layer_list: a conv block
(conv -> ReLU -> max pool) or a dense layer (with a ReLU unless it is the
output layer).  Every pass reads the spec's stage table (_stages, cached per
spec): each stage's layer class, weight shape and, for a conv block, pool and
geometry.  _conv_forward and _conv_backward run a chain of conv blocks.
run_stages runs any range of stages, from its first stage's input, filling
a caller's list with their caches, and backward_batch, from that list, runs
back to the stage the forward pass started from; training, its
frozen-feature store and the gradient checks all go through them.  Features
enter conv blocks T-major (a free view of channels-last activations), and
are C-major from the last conv block's output on: the one layout rule,
Model.channels, which every pass reads.

Every layer's weights and bias are views of one vector, Model.params, so
frozen stages own a prefix of it and trained ones the tail.  Each step's
gradient is one vector of the same layout, into whose views backward writes.

From 2 * HALF_WINDOWS windows, the per-window work of the conv blocks runs
on two window halves at once, one on the calling thread and one on a single
worker thread (_in_halves), with the bytes of one pass over all windows:
- OpenBLAS gives a window's conv rows the same bytes in any call of 2 or
  more windows, and each half has at least 2;
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
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from . import layers as L
from .fileio import Frame, FramedReader, write_framed
from .waveforms import WINDOW_LENGTH

STD_FLOOR = 1e-8
CONV_CHUNK = 64  # windows per conv pass of a forward that keeps no caches
HALF_WINDOWS = 10  # windows per half below which one part is as fast as two halves

CKPT_MAGIC = b"HIFCKPT\x01"
CKPT_VERSION = 1


class SpecError(ValueError):
    """Architecture spec that cannot produce a valid network."""


class CheckpointError(Exception):
    """A checkpoint file that cannot be read back; the message names the check."""


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
    input_length: int = WINDOW_LENGTH

    def __post_init__(self):
        if (type(self.blocks) is not tuple or len(self.blocks) != 4  # a list is unhashable
                or any(type(b) is not ConvBlockSpec for b in self.blocks)):
            raise SpecError("the CNN has exactly 4 conv blocks, a tuple of ConvBlockSpec")
        widths = [self.hidden_dim, self.input_length, *(v for b in self.blocks for v in astuple(b))]
        if any(type(v) is not int or v < 1 for v in widths):  # a bool or float is refused
            raise SpecError("hidden_dim, input_length and every conv block field must be "
                            "integers of at least 1")
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

    def to_dict(self) -> dict:
        return {
            "kind": "cnn",
            "blocks": [
                [b.out_channels, b.kernel_size, b.pool_width, b.pool_stride] for b in self.blocks
            ],
            "hidden_dim": self.hidden_dim,
            "output_dim": 1,  # the single sigmoid unit, kept so that fingerprints hold
            "input_length": self.input_length,
        }


@dataclass(frozen=True)
class MlpSpec:
    hidden_dims: tuple[int, int, int] = (128, 64, 32)
    input_length: int = WINDOW_LENGTH

    def __post_init__(self):
        if type(self.hidden_dims) is not tuple or len(self.hidden_dims) != 3:  # list: unhashable
            raise SpecError("the MLP has exactly 4 dense layers (a tuple of 3 hidden widths)")
        if any(type(v) is not int or v < 1 for v in (*self.hidden_dims, self.input_length)):
            raise SpecError("input_length and every hidden width must be integers of at least 1")

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
            blocks = tuple(ConvBlockSpec(*b) for b in d["blocks"])
            hidden_dim, output_dim = int(d["hidden_dim"]), int(d.get("output_dim", 1))
            spec = CnnSpec(blocks, hidden_dim, int(d.get("input_length", WINDOW_LENGTH)))
            if output_dim != 1:  # a spec file may ask for another head; CnnSpec has one
                raise SpecError("the output layer is a single sigmoid unit")
            return spec
        if kind == "mlp":
            return MlpSpec(
                hidden_dims=tuple(int(h) for h in d["hidden_dims"]),
                input_length=int(d.get("input_length", WINDOW_LENGTH)),
            )
    except SpecError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # a bad block, a width "x" or 1e400
        raise SpecError(f"malformed {kind} spec: {exc}") from exc
    raise SpecError(f"unknown spec kind: {kind!r}")


def fingerprint(spec) -> bytes:
    """SHA-256 of the canonical spec document; 32 bytes."""
    return hashlib.sha256(json.dumps(spec.to_dict(), sort_keys=True).encode()).digest()


class Stage(NamedTuple):
    """One row of a spec's stage table: the layer class and weight shape and,
    for a conv block, its pool (width, stride) and its geometry (C, L, K, O,
    T, pooled length), None for a dense stage."""
    layer: type
    shape: tuple[int, ...]
    pool: tuple[int, int] | None = None
    geo: tuple[int, int, int, int, int, int] | None = None


@functools.lru_cache(maxsize=64)
def _stages(spec) -> tuple[Stage, ...]:
    """The stage table of a spec, in layer_list order, derived once per spec."""
    if isinstance(spec, CnnSpec):
        lengths = spec.feature_lengths()  # the input's, then after each conv and each pool
        table, c = [], 1
        for i, (o, k, *pool) in enumerate(map(astuple, spec.blocks)):
            table.append(Stage(L.ConvLayer, (o, c, k), tuple(pool),
                               (c, lengths[2 * i], k, o, *lengths[2 * i + 1 : 2 * i + 3])))
            c = o
        dense_dims = [(c * lengths[-1], spec.hidden_dim), (spec.hidden_dim, 1)]
    elif isinstance(spec, MlpSpec):
        dims = [spec.input_length, *spec.hidden_dims, 1]
        table, dense_dims = [], zip(dims, dims[1:])
    else:
        raise SpecError(f"unknown spec type: {type(spec).__name__}")
    return (*table, *(Stage(L.DenseLayer, (out_dim, in_dim)) for in_dim, out_dim in dense_dims))


def _parameter_count(spec) -> int:
    """Entries of a parameter vector for spec: every stage's weights and biases."""
    return sum(math.prod(s.shape) + s.shape[0] for s in _stages(spec))


class Model:
    """A spec and one C-contiguous float64 vector params, of which each layer's
    weights and bias are views, in layer_list order: stage i owns
    params[offsets[i] : offsets[i + 1]], its weights and then its biases.
    stages is the spec's stage table; the n_conv conv stages lead it."""

    def __init__(self, spec: "CnnSpec | MlpSpec", params: np.ndarray):
        needed = _parameter_count(spec)
        if params.size != needed:
            raise ValueError(f"parameter vector has {params.size} entries, spec needs {needed}")
        self.spec, self.params, self.stages = spec, params, _stages(spec)
        self.n_conv = sum(s.pool is not None for s in self.stages)
        self.layer_list, self.offsets = [], [0]
        for cls, shape, *_ in self.stages:
            lo, hi = self.offsets[-1], self.offsets[-1] + math.prod(shape)
            self.layer_list.append(cls(params[lo:hi].reshape(shape), params[hi : hi + shape[0]]))
            self.offsets.append(hi + shape[0])

    def channels(self, i: int, out: np.ndarray) -> np.ndarray:
        """(..., B, O, T) view of stage i's output (..., B, features): each of
        its O output units over T positions (T = 1 for a dense stage)."""
        n_out = self.stages[i].shape[0]
        if i + 1 >= self.n_conv:  # C-major from the last conv block's output on
            return out.reshape(*out.shape[:-1], n_out, -1)
        return out.reshape(*out.shape[:-1], -1, n_out).swapaxes(-1, -2)

    def parameter_count(self) -> int:
        return self.params.size

    def flat_parameters(self) -> np.ndarray:
        return self.params.copy()

    def copy(self) -> "Model":
        return Model(self.spec, self.params.copy())


def build_model(spec, init_seed: int) -> Model:
    """He-initialized weights, zero biases; deterministic in init_seed."""
    rng = np.random.default_rng(np.random.SeedSequence([init_seed, 0x1417]))
    count = _parameter_count(spec)
    try:
        model = Model(spec, np.zeros(count))
        for w in (layer.weights for layer in model.layer_list):
            w[...] = rng.normal(0.0, np.sqrt(2.0 / math.prod(w.shape[1:])), size=w.shape)
    except (MemoryError, ValueError) as exc:  # ValueError: more elements than an index holds
        raise SpecError(f"{count} parameters are too many to allocate: {exc}") from None
    return model


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


def _halves_pay(n: int) -> bool:
    """Whether n windows run as two halves, each of at least HALF_WINDOWS >= 2."""
    return n // 2 >= HALF_WINDOWS


def _in_halves(n: int, fn, split: bool = True) -> None:
    """fn(lo, hi) over windows 0..n-1: windows [0, n//2) here and [n//2, n)
    on the worker thread, or fn(0, n) here alone if not split or too few."""
    if split and _halves_pay(n):
        _both(lambda: fn(0, n // 2), lambda: fn(n // 2, n))
    else:
        fn(0, n)


def _rows(buf: np.ndarray, lo: int, hi: int, *shape: int) -> np.ndarray:
    """Windows lo..hi-1 of a per-window buffer buf (n, width), as one
    C-contiguous (hi - lo, *shape) array of each window's first prod(shape)
    entries.  Parts of disjoint window ranges never overlap, so a buffer
    as wide as the widest stage serves every stage."""
    width = buf.shape[1]
    return buf.reshape(-1)[lo * width : lo * width + (hi - lo) * math.prod(shape)].reshape(
        hi - lo, *shape)


def _own(n: int, sizes: list[int]) -> list[np.ndarray]:
    """One (n, size) buffer per stage."""
    return [np.empty((n, size)) for size in sizes]


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
    geo = [model.stages[i].geo for i in stages]
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
    offsets = [np.empty((n, size), np.min_scalar_type(model.stages[i].pool[0] - 1))
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
            y = _rows(outs[j], lo, hi, o * tp)
            L.maxpool_forward_batch(relu, *model.stages[i].pool, out=model.channels(i, y),
                                    offset=_rows(offsets[j], lo, hi, tp, o).transpose(0, 2, 1))

    _in_halves(n, chain, split=h.ndim == 2)
    if keep:
        for j, (c, length, k, o, t, tp) in enumerate(geo):
            caches.append((h, pre[j].reshape(n, t, o).transpose(0, 2, 1),
                           cols[j].reshape(n * t, c * k),
                           offsets[j].reshape(n, tp, o).transpose(0, 2, 1)))
            h = outs[j]
    return outs[-1].reshape(*h.shape[:-1], -1)


def _conv_backward(model: Model, grad: np.ndarray, caches: list, start: int,
                   grads: Model) -> None:
    """Writes the weight and bias gradients of conv stages
    start..start+len(caches)-1 into grads' layers of those stages, from grad
    (B, features), the gradient of the last stage's output.  Stage start's
    input gradient, which nothing reads, is not made.  Overwrites each
    cache's pre-activation with its gradient.

    Each window half routes its gradient down the chain (pool, ReLU mask,
    d_cols matmul, col2im) into its rows of buffers allocated here.  The
    weight and bias gradients, which sum over the windows, are then one call
    each on the whole batch: on the calling thread when the batch runs as one
    part, else alternating between the two threads, the call that makes a
    stage's gradient being the same on either.
    """
    n = len(grad)
    stages = range(start, start + len(caches))
    geo = [model.stages[i].geo for i in stages]
    # each stage's pool gradient, then, once the ReLU mask has moved it into
    # the cache, the d_cols of each stage above start
    work = _shared(n, [t * max(o, c * k * (j > 0)) for j, (c, _, k, o, t, _) in enumerate(geo)])[0]
    d_in = [None] + [np.empty((n, length * c)) for c, length, *_ in geo[1:]]

    def chain(lo, hi):
        g, m = grad[lo:hi], hi - lo
        for j in reversed(range(len(stages))):
            i, (c, length, k, o, t, tp) = stages[j], geo[j]
            _, pre, _, offset = caches[j]
            d_pre = L.maxpool_backward_batch(
                model.channels(i, g), offset[lo:hi], t, *model.stages[i].pool,
                out=_rows(work, lo, hi, t, o).transpose(0, 2, 1))
            d_pre = L.relu_backward(d_pre, pre[lo:hi], pre[lo:hi])
            if j == 0:
                break  # stage start
            L.conv_backward_batch(d_pre, None, model.layer_list[i], (m, c, length), True,
                                  d_cols=_rows(work, lo, hi, t * c, k).reshape(m * t, c * k),
                                  out=_rows(d_in[j], lo, hi, length, c))
            g = d_in[j][lo:hi]

    _in_halves(n, chain)

    def reduce(share):
        for j in share:
            (c, length, *_), (_, d_pre, cols, _), i = geo[j], caches[j], stages[j]
            L.conv_backward_batch(d_pre, cols, model.layer_list[i], (n, c, length), False,
                                  d_w=grads.layer_list[i].weights, d_b=grads.layer_list[i].bias)

    if not _halves_pay(n):
        reduce(range(len(stages)))
    else:
        _both(lambda: reduce(range(0, len(stages), 2)), lambda: reduce(range(1, len(stages), 2)))


def run_stages(model: Model, h: np.ndarray, start: int = 0, stop: int | None = None,
               caches: list | None = None) -> np.ndarray:
    """Output of stages start..stop-1 (to the end by default), the input of
    stage stop, from h, a stack (..., B, features) of stage start's inputs.

    Stage 0 takes a (B, input_length) batch of raw windows and standardizes
    them.  A conv block runs conv -> ReLU -> max pool; a dense layer is
    followed by a ReLU unless it is the output layer, whose output is the
    logit.  With a list caches, appends each stage's cache: its input, its
    pre-activation and, for a conv block, the im2col matrix and the pool
    offsets.  Without, conv stages run in chunks of CONV_CHUNK windows (never
    1, so OpenBLAS gives one pass's bytes).  Conv stages run on two window
    halves at once (see _conv_forward); dense stages, whose matmul bytes
    depend on the batch, run on the whole batch.
    """
    stop = len(model.layer_list) if stop is None else stop
    if start == 0 < stop:
        h = np.atleast_2d(np.asarray(h, dtype=np.float64))
        if h.shape[-1] != model.spec.input_length:
            raise L.ShapeError(f"windows must have {model.spec.input_length} samples")
    return _run_stages(model, h, start, stop, caches, raw=start == 0 < stop)


def _run_stages(model: Model, h: np.ndarray, start: int, stop: int, caches: list | None = None,
                raw: bool = False) -> np.ndarray:
    """run_stages on h, whose raw windows it standardizes only if raw: stage 0
    also runs on windows standardized already, a forward's first cache."""
    dense = max(start, min(stop, model.n_conv))
    if caches is None and dense > start and h.shape[-2] > CONV_CHUNK + 1:
        # a 1-window tail joins the last chunk; standardize works window by window
        parts = np.split(h, range(CONV_CHUNK, h.shape[-2] - 1, CONV_CHUNK), axis=-2)
        h = np.concatenate([_run_stages(model, p, start, dense, raw=raw) for p in parts], axis=-2)
        return _run_stages(model, h, dense, stop)
    if raw:
        h = standardize(h)
    if dense > start:
        h = _conv_forward(model, h, start, dense, caches)
    for i in range(dense, stop):
        pre = L.dense_forward_batch(h, model.layer_list[i])
        if caches is not None:
            caches.append((h, pre))
        h = L.relu_forward(pre) if i < len(model.layer_list) - 1 else pre
        del pre  # else it would live on while the next stage runs
    return h


def forward_batch(model: Model, x: np.ndarray, start: int = 0, caches: list | None = None):
    """Probabilities for a (B, input_length) batch of raw windows, or, with
    start=k, for x holding stage k's input.  With a list caches, appends the
    caches of stages start..end to it, as run_stages does: the list that
    backward_batch takes.
    """
    probs = L.sigmoid(run_stages(model, x, start, caches=caches)[..., 0])
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activation in forward pass")
    return probs


def forward(model: Model, window: np.ndarray) -> float:
    """HIF probability for a single raw window."""
    return float(forward_batch(model, np.asarray(window)[None, :])[0])


def backward_batch(model: Model, caches: list, probs: np.ndarray, y: np.ndarray) -> Model:
    """Mean-BCE gradient, a Model over one vector laid out like model.params.

    Backpropagation stops at the stage k the caches' forward pass started
    from: the stages below it get zeros, and stage k skips its input
    gradient, which nothing reads.  The caches are used up: each conv
    stage's pre-activation is overwritten by its gradient.
    """
    n = len(model.layer_list)
    start = n - len(caches)
    dense = max(start, model.n_conv)
    grads = Model(model.spec, np.empty(model.params.size))  # after the forward's buffers: see train
    grads.params[: model.offsets[start]] = 0.0
    grad = L.sigmoid_bce_backward(probs, y)[:, None]
    for i in range(n - 1, dense - 1, -1):
        h, pre = caches[i - start]
        if i < n - 1:  # the output layer has no ReLU
            grad = L.relu_backward(grad, pre)
        d_w, d_b = grads.layer_list[i].weights, grads.layer_list[i].bias
        grad = L.dense_backward_batch(grad, h, model.layer_list[i], i > start, d_w=d_w, d_b=d_b)[2]
    if dense > start:
        _conv_backward(model, grad, caches[: dense - start], start, grads)
    return grads


def batch_loss_and_grads(model: Model, x: np.ndarray, y: np.ndarray, start: int = 0):
    """(loss, grads, probs, vector) of one step on x, the input of stage start:
    vector is backward_batch's Model's params, grads its layers' views, None below start."""
    caches = []
    probs = forward_batch(model, x, start, caches)
    loss = L.bce_loss(probs, y)
    grads = backward_batch(model, caches, probs, y)
    views = [(l.weights, l.bias) for l in grads.layer_list[start:]]
    return loss, [None] * start + views, probs, grads.params


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """A checkpoint's contents, with its spec parsed from metadata["spec"]."""
    fingerprint: bytes
    params: np.ndarray
    metadata: dict
    spec: "CnnSpec | MlpSpec"


# Inside the fileio frame: a head of fingerprint 32s | count u64, and a body of
# params f64[count] | meta_len u32 | metadata (JSON, UTF-8) [meta_len].
_CKPT_HEAD = struct.Struct("<8sI32sQ")
_META_LEN = struct.Struct("<I")
_CKPT_FRAME = Frame("checkpoint", _CKPT_HEAD, CKPT_MAGIC, CKPT_VERSION, _META_LEN.size,
                    CheckpointError)


def save_checkpoint(model: Model, metadata: dict, path) -> Checkpoint:
    meta = {**metadata, "spec": model.spec.to_dict()}
    params = model.flat_parameters()
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    fp = fingerprint(model.spec)
    write_framed(path, _CKPT_FRAME, (fp, params.size),
                 [np.ascontiguousarray(params, dtype="<f8"),
                  _META_LEN.pack(len(meta_blob)) + meta_blob])
    return Checkpoint(fp, params, meta, model.spec)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        r = FramedReader(f, path, _CKPT_FRAME)
        fp, count = r.fields
        if r.body_size < 8 * count + _META_LEN.size:
            raise CheckpointError(f"{path}: truncated parameter block")
        params = np.empty(count, "<f8")
        r.readinto(params)
        (meta_len,) = _META_LEN.unpack(r.read(_META_LEN.size))
        if r.body_size != 8 * count + _META_LEN.size + meta_len:
            raise CheckpointError(f"{path}: truncated metadata block")
        meta_blob = r.read(meta_len)
        r.finish()
    try:
        metadata = json.loads(meta_blob.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise CheckpointError(f"{path}: metadata is not valid JSON") from exc
    if not isinstance(metadata, dict) or not isinstance(metadata.get("spec"), dict):
        raise CheckpointError(f"{path}: metadata carries no spec")
    try:
        spec = spec_from_dict(metadata["spec"])
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise CheckpointError(f"{path}: malformed spec in metadata: {exc}") from exc
    if fingerprint(spec) != fp:
        raise FingerprintMismatchError(f"{path}: metadata spec does not match fingerprint")
    needed = _parameter_count(spec)
    if needed != count:
        raise CheckpointError(f"{path}: spec needs {needed} parameters, file has {count}")
    return Checkpoint(fp, params, metadata, spec)


def restore_for_transfer(ckpt: Checkpoint, target_spec) -> Model:
    """Model with the checkpoint's parameters, ready for fine-tuning."""
    if fingerprint(target_spec) != ckpt.fingerprint:
        raise FingerprintMismatchError("checkpoint fingerprint does not match the target spec")
    return Model(target_spec, ckpt.params.copy())
