"""Model assembly: the fixed 4-block CNN and 4-layer MLP, initialization,
forward passes, and versioned checkpoints carrying an architecture
fingerprint (the transfer-learning handoff unit)."""

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
    init_seed: int

    @property
    def is_cnn(self) -> bool:
        return isinstance(self.spec, CnnSpec)

    @property
    def n_conv(self) -> int:
        """Conv layers at the front of layer_list; the dense head follows."""
        return len(self.spec.blocks) if self.is_cnn else 0

    def conv_layers(self) -> list:
        return [l for l in self.layer_list if isinstance(l, L.ConvLayer)]

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
        return Model(self.spec, layer_list, self.init_seed)


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
    return Model(spec, layer_list, init_seed)


def standardize(x: np.ndarray) -> np.ndarray:
    """Per-window z-score; removes absolute amplitude as a shortcut feature."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    std = np.maximum(x.std(axis=-1, keepdims=True), STD_FLOOR)
    return (x - mean) / std


def conv_features(model: Model, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Dense-head input for a (B, input_length) batch of raw windows, and the
    activations backward_batch needs below the head.

    The windows are standardized, run through the conv->ReLU->pool blocks and
    flattened.  An MLP has no conv blocks: its features are the standardized
    windows.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.spec.input_length:
        raise L.ShapeError(f"windows must have {model.spec.input_length} samples")
    h = standardize(x)
    cache = {"inputs": [], "pools": [], "pre_relu": []}
    if model.is_cnn:
        h = h[:, None, :]  # (B, 1, L)
        for blk, conv in zip(model.spec.blocks, model.layer_list):
            out, cols = L.conv_forward_batch(h, conv)
            cache["inputs"].append((h.shape, cols))
            cache["pre_relu"].append(out)
            act = L.relu_forward(out)
            h, offset = L.maxpool_forward_batch(act, blk.pool_width, blk.pool_stride)
            cache["pools"].append((offset, act.shape[2]))
        cache["pooled_shape"] = h.shape
    return h.reshape(h.shape[0], -1), cache


def head_forward(model: Model, features: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Probabilities from dense-head input features, and the head's
    (pre-activations, layer inputs) for backward_batch."""
    dense = model.layer_list[model.n_conv:]
    h = features
    pre_acts, acts = [], [h]
    for i, layer in enumerate(dense):
        pre = L.dense_forward_batch(h, layer)
        pre_acts.append(pre)
        if i < len(dense) - 1:
            h = L.relu_forward(pre)
            acts.append(h)
    probs = L.sigmoid(pre_acts[-1][:, 0])
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activation in forward pass")
    return probs, (pre_acts, acts)


def forward_batch(model: Model, x: np.ndarray, want_cache: bool = False,
                  from_features: bool = False):
    """Probabilities for a (B, input_length) batch of raw windows.

    With from_features=True, x holds conv_features output instead, and only
    the dense head runs.  With want_cache=True also returns the intermediate
    activations needed by backward_batch.
    """
    if from_features:
        features, cache = x, {}
    else:
        features, cache = conv_features(model, x)
    probs, cache["head"] = head_forward(model, features)
    if want_cache:
        return probs, cache
    return probs


def forward(model: Model, window: np.ndarray) -> float:
    """HIF probability for a single raw window."""
    return float(forward_batch(model, np.asarray(window)[None, :])[0])


def backward_batch(
    model: Model, cache: dict, probs: np.ndarray, y: np.ndarray, first_layer: int = 0
) -> list:
    """Mean-BCE gradients, aligned with model.layer_list.

    Backpropagation stops at layer first_layer: the layers below it get None,
    and a conv layer there skips its input gradient, which nothing reads.  A
    cache from features (no conv activations) supports only a first_layer at
    or past the dense head.
    """
    d_logit = L.sigmoid_bce_backward(probs, y)  # (B,)
    grads: list = [None] * len(model.layer_list)
    n_conv = model.n_conv
    pre_acts, acts = cache["head"]
    stop = max(first_layer, n_conv)
    d_pre = d_logit[:, None]
    for i in range(len(model.layer_list) - 1, stop - 1, -1):
        d_w, d_b, d_x = L.dense_backward_batch(d_pre, acts[i - n_conv], model.layer_list[i])
        grads[i] = (d_w, d_b)
        if i > stop:
            d_pre = L.relu_backward(d_x, pre_acts[i - n_conv - 1])
    if first_layer >= n_conv:
        return grads
    if "pooled_shape" not in cache:
        raise ValueError("backward into the conv blocks needs a forward pass from raw windows")
    d_h = d_x.reshape(cache["pooled_shape"])
    for bi in range(n_conv - 1, first_layer - 1, -1):
        blk = model.spec.blocks[bi]
        offset, act_len = cache["pools"][bi]
        d_act = L.maxpool_backward_batch(d_h, offset, act_len, blk.pool_width, blk.pool_stride)
        d_pre = L.relu_backward(d_act, cache["pre_relu"][bi])
        in_shape, cols = cache["inputs"][bi]
        d_w, d_b, d_h = L.conv_backward_batch(d_pre, cols, model.layer_list[bi], in_shape,
                                              input_grad=bi > first_layer)
        grads[bi] = (d_w, d_b)
    return grads


def batch_loss_and_grads(model: Model, x: np.ndarray, y: np.ndarray, first_layer: int = 0,
                         from_features: bool = False):
    probs, cache = forward_batch(model, x, want_cache=True, from_features=from_features)
    loss = L.bce_loss(probs, y)
    grads = backward_batch(model, cache, probs, y, first_layer)
    return loss, grads, probs


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    format_version: int
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
    return Checkpoint(CKPT_VERSION, fingerprint(model.spec), params, meta)


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
    ckpt = Checkpoint(version, fp, params, metadata)
    try:
        spec = ckpt.spec
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise CheckpointCorruptError(f"{path}: malformed spec in metadata: {exc}") from exc
    if fingerprint(spec) != fp:
        raise FingerprintMismatchError(f"{path}: metadata spec does not match fingerprint")
    return ckpt


def restore_for_transfer(ckpt: Checkpoint, target_spec) -> Model:
    """Model with the checkpoint's parameters, ready for fine-tuning."""
    if fingerprint(target_spec) != ckpt.fingerprint:
        raise FingerprintMismatchError("checkpoint fingerprint does not match the target spec")
    layer_list = [cls(np.empty(shape), np.empty(shape[0]))
                  for cls, shape in _layer_shapes(target_spec)]
    model = Model(target_spec, layer_list, init_seed=int(ckpt.metadata.get("init_seed", 0)))
    model.set_flat_parameters(ckpt.params)
    return model
