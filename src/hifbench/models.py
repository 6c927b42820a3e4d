"""Model assembly: the fixed 4-block CNN and 4-layer MLP, initialization,
forward and backward passes, and versioned checkpoints carrying an
architecture fingerprint (the transfer-learning handoff unit).

A network is a list of stages, one per entry of layer_list: a conv block
(conv -> ReLU -> max pool) or a dense layer (with a ReLU unless it is the
output layer).  run_stage and stage_backward are the only forward and
backward code: training, its frozen-feature store and the gradient checks
all loop over them, starting at any stage k from that stage's input.
Backward stops at the stage its forward pass started from.
Features enter conv blocks T-major (a free view of channels-last activations)
and the dense head C-major.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib
from dataclasses import dataclass, field, replace
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
    kind = d.get("kind")
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
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        layer_list.append(cls(w, np.zeros(shape[0])))
    return Model(spec, layer_list)


def standardize(x: np.ndarray) -> np.ndarray:
    """Per-window z-score; removes absolute amplitude as a shortcut feature."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    std = np.maximum(x.std(axis=-1, keepdims=True), STD_FLOOR)
    return (x - mean) / std


def run_stage(model: Model, i: int, h: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Stage i on a stack h (..., B, features) of its inputs: (output, cache).

    A conv block views h as (N, in_channels, length) and runs conv -> ReLU ->
    max pool; its output is flattened back to (..., B, features).  A dense
    layer is followed by a ReLU, except the output layer, whose output is the
    logit.  The cache holds the stage input, then the pre-activation, then,
    for a conv block, the im2col matrix and the pool offsets.
    """
    layer = model.layer_list[i]
    pool = model.pool(i)
    if pool is None:
        pre = L.dense_forward_batch(h, layer)
        out = L.relu_forward(pre) if i < len(model.layer_list) - 1 else pre
        return out, (h, pre)
    x = h.reshape(-1, h.shape[-1] // layer.in_channels, layer.in_channels).transpose(0, 2, 1)
    pre, cols = L.conv_forward_batch(x, layer)
    out, offset = L.maxpool_forward_batch(L.relu_forward(pre), *pool)
    out = out if model.pool(i + 1) is None else out.transpose(0, 2, 1)  # to T-major
    return out.reshape(*h.shape[:-1], -1), (h, pre, cols, offset)


def stage_backward(model: Model, i: int, grad: np.ndarray, cache: tuple,
                   input_grad: bool) -> tuple[tuple, np.ndarray | None]:
    """((d_weights, d_bias), d_input) of stage i from the gradient of its
    output; d_input is None when input_grad is False."""
    layer = model.layer_list[i]
    pool = model.pool(i)
    h, pre = cache[:2]
    if pool is None:
        if i < len(model.layer_list) - 1:
            grad = L.relu_backward(grad, pre)
        d_w, d_b, d_h = L.dense_backward_batch(grad, h, layer, input_grad)
        return (d_w, d_b), d_h
    cols, offset = cache[2:]
    d_act = L.maxpool_backward_batch(model.channels(i, grad), offset, pre.shape[2], *pool)
    d_pre = L.relu_backward(d_act, pre)
    in_shape = (pre.shape[0], layer.in_channels, h.shape[-1] // layer.in_channels)
    d_w, d_b, d_x = L.conv_backward_batch(d_pre, cols, layer, in_shape, input_grad)
    return (d_w, d_b), None if d_x is None else d_x.transpose(0, 2, 1).reshape(h.shape)


def run_stages(model: Model, h: np.ndarray, start: int = 0, stop: int | None = None,
               caches: list | None = None) -> np.ndarray:
    """Output of stages start..stop-1 (to the end by default), which is the
    input of stage stop, from h, the input of stage start.

    Stage 0's input is a (B, input_length) batch of raw windows, which are
    standardized before stage 0 runs.  With a list caches, appends each
    stage's cache to it.  Without, conv stages run in chunks of CONV_CHUNK
    windows (never 1, so OpenBLAS gives one pass's bytes), dense stages unchunked.
    """
    stop = len(model.layer_list) if stop is None else stop
    if start == 0 < stop:
        h = np.atleast_2d(np.asarray(h, dtype=np.float64))
        if h.shape[-1] != model.spec.input_length:
            raise L.ShapeError(f"windows must have {model.spec.input_length} samples")
    dense = next((i for i in range(start, stop) if model.pool(i) is None), stop)
    if caches is None and dense > start and h.shape[-2] > CONV_CHUNK + 1:
        # a 1-window tail joins the last chunk; standardize works window by window
        parts = np.split(h, range(CONV_CHUNK, h.shape[-2] - 1, CONV_CHUNK), axis=-2)
        h = np.concatenate([run_stages(model, p, start, dense) for p in parts], axis=-2)
        return run_stages(model, h, dense, stop)
    if start == 0 < stop:
        h = standardize(h)
    for i in range(start, stop):
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
    gradient, which nothing reads.
    """
    n = len(model.layer_list)
    start = n - len(caches)
    grads: list = [None] * n
    grad = L.sigmoid_bce_backward(probs, y)[:, None]
    for i in range(n - 1, start - 1, -1):
        grads[i], grad = stage_backward(model, i, grad, caches[i - start], i > start)
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
    body = (
        CKPT_MAGIC
        + struct.pack("<I", CKPT_VERSION)
        + fingerprint(model.spec)
        + struct.pack("<Q", params.size)
        + np.ascontiguousarray(params, dtype="<f8").tobytes()
        + struct.pack("<I", len(meta_blob))
        + meta_blob
    )
    write_atomic(path, body + struct.pack("<I", zlib.crc32(body)))
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
    if zlib.crc32(blob[:-4]) != stored_crc:
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
