"""Versioned binary dataset files with a trailing CRC32 checksum.

Layout (all little-endian):
    header:  magic 8s | format_version u32 | generator_version u32 |
             count u64 | window_length u32 | scenario_id u8 | master_seed u64
    record:  label u8 | scenario_id u8 | generation_seed u64 | samples f64[window_length]
    footer:  crc32 u32 over everything preceding it
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .fileio import write_atomic
from .waveforms import SCENARIOS, Dataset, Label, SystemId, Window

MAGIC = b"HIFDATA\x01"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sIIQIBQ")
_RECORD_HEAD = struct.Struct("<BBQ")


class DatasetFileError(Exception):
    """Base class for dataset file problems."""


class DatasetVersionError(DatasetFileError):
    """File carries an unsupported format version."""


class DatasetChecksumError(DatasetFileError):
    """Stored CRC32 does not match the file contents."""


class DatasetTruncatedError(DatasetFileError):
    """File is shorter than its header claims (or not a dataset file at all)."""


class DatasetFieldError(DatasetFileError):
    """A label or scenario byte names no known value, or a sample is not finite."""


_SCENARIO_BY_ID = {s.system_id: s for s in SCENARIOS.values()}


def write_dataset(d: Dataset, path) -> None:
    if d.windows:
        window_length = len(d.windows[0].samples)
    else:
        window_length = d.scenario.window_length
    parts = [
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            d.generator_version,
            len(d.windows),
            window_length,
            int(d.scenario.system_id),
            d.master_seed & 0xFFFFFFFFFFFFFFFF,
        )
    ]
    for w in d.windows:
        if len(w.samples) != window_length:
            raise DatasetFileError("all windows in a file must share one length")
        parts.append(_RECORD_HEAD.pack(int(w.label), int(w.scenario_id), w.generation_seed))
        parts.append(np.ascontiguousarray(w.samples, dtype="<f8").tobytes())
    body = b"".join(parts)
    blob = body + struct.pack("<I", zlib.crc32(body))
    write_atomic(path, blob)


def read_dataset(path) -> Dataset:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + 4:
        raise DatasetTruncatedError(f"{path}: file too short for a dataset header")
    magic, fmt, gen_version, count, window_length, scenario_id, master_seed = _HEADER.unpack_from(
        blob, 0
    )
    if magic != MAGIC:
        raise DatasetTruncatedError(f"{path}: bad magic, not a dataset file")
    if fmt != FORMAT_VERSION:
        raise DatasetVersionError(f"{path}: format version {fmt}, expected {FORMAT_VERSION}")

    record_size = _RECORD_HEAD.size + 8 * window_length
    expected = _HEADER.size + count * record_size + 4
    if len(blob) != expected:
        raise DatasetTruncatedError(
            f"{path}: expected {expected} bytes for {count} windows, found {len(blob)}"
        )
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise DatasetChecksumError(f"{path}: checksum mismatch")
    if scenario_id not in _SCENARIO_BY_ID:
        raise DatasetFieldError(f"{path}: unknown scenario id {scenario_id}")

    windows = []
    offset = _HEADER.size
    for k in range(count):
        label, w_scenario_id, gen_seed = _RECORD_HEAD.unpack_from(blob, offset)
        offset += _RECORD_HEAD.size
        try:
            label, w_scenario_id = Label(label), SystemId(w_scenario_id)
        except ValueError as exc:
            raise DatasetFieldError(
                f"{path}: window {k}: label {label} or scenario id {w_scenario_id} unknown"
            ) from exc
        samples = np.frombuffer(blob, dtype="<f8", count=window_length, offset=offset).copy()
        offset += 8 * window_length
        if not np.all(np.isfinite(samples)):
            raise DatasetFieldError(f"{path}: window {k}: non-finite sample")
        windows.append(Window(samples, label, w_scenario_id, gen_seed))

    scenario = _SCENARIO_BY_ID[scenario_id]
    return Dataset(windows, master_seed, scenario, gen_version)
