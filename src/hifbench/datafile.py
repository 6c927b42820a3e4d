"""Versioned binary dataset files with a trailing CRC32 checksum.

Layout (all little-endian):
    header:  magic 8s | format_version u32 | generator_version u32 |
             count u64 | window_length u32 | scenario_id u8 | master_seed u64
    record:  label u8 | scenario_id u8 | generation_seed u64 | samples f64[window_length]
    footer:  crc32 u32 over everything preceding it

Records are packed, 10 + 8 * window_length bytes each, and both directions move
them CHUNK_WINDOWS at a time through one structured array, updating the CRC per
chunk.  Writing therefore holds one chunk beyond the dataset itself, and reading
holds one chunk beyond the (count, window_length) sample block that the
returned windows are row views of; neither ever holds the whole file.  Reading
notes each record's finiteness as its chunk arrives, and builds the windows
only from a file whose every record is valid.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .fileio import write_atomic
from .waveforms import CHUNK_WINDOWS, SCENARIOS, Dataset, Label, SystemId, Window, _row_windows

MAGIC = b"HIFDATA\x01"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sIIQIBQ")
_RECORD_HEAD = struct.Struct("<BBQ")
_CRC = struct.Struct("<I")


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
_LABELS = {int(v): v for v in Label}
_SYSTEM_IDS = {int(v): v for v in SystemId}


def _record_dtype(window_length: int) -> np.dtype:
    """The packed on-disk record as one structured dtype."""
    return np.dtype([("label", "u1"), ("scenario_id", "u1"), ("seed", "<u8"),
                     ("samples", "<f8", (window_length,))])


def _encode(header: bytes, windows: list[Window], window_length: int):
    """Yield the file as header, record chunks and CRC footer.  The chunk buffer
    is reused, so each chunk must be consumed before the next is drawn."""
    crc = zlib.crc32(header)
    yield header
    chunk = np.empty(min(len(windows), CHUNK_WINDOWS), _record_dtype(window_length))
    for start in range(0, len(windows), CHUNK_WINDOWS):
        part = windows[start : start + CHUNK_WINDOWS]
        records = chunk[: len(part)]
        records[["label", "scenario_id", "seed"]] = [
            (w.label, w.scenario_id, w.generation_seed) for w in part]
        np.stack([w.samples for w in part], out=records["samples"])
        data = records.view(np.uint8)
        crc = zlib.crc32(data, crc)
        yield data
    yield _CRC.pack(crc)


def write_dataset(d: Dataset, path) -> None:
    if d.windows:
        window_length = len(d.windows[0].samples)
    else:
        window_length = d.scenario.window_length
    if any(len(w.samples) != window_length for w in d.windows):
        raise DatasetFileError("all windows in a file must share one length")
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        d.generator_version,
        len(d.windows),
        window_length,
        int(d.scenario.system_id),
        d.master_seed & 0xFFFFFFFFFFFFFFFF,
    )
    write_atomic(path, _encode(header, d.windows, window_length))


def _read_records(f, count: int, window_length: int, crc: int, path):
    """Read count records from f, CHUNK_WINDOWS at a time through one buffer.

    Returns the CRC continued over them, their heads, their samples as one
    (count, window_length) block, and whether each record's samples are finite.
    """
    heads = np.empty(count, [("label", "u1"), ("scenario_id", "u1"), ("seed", "<u8")])
    block = np.empty((count, window_length))
    finite = np.empty(count, bool)
    if count:  # with no records the size does not bound window_length, nor its dtype's size
        chunk = np.empty(min(count, CHUNK_WINDOWS), _record_dtype(window_length))
    for start in range(0, count, CHUNK_WINDOWS):
        records = chunk[: min(CHUNK_WINDOWS, count - start)]
        data = records.view(np.uint8)
        if f.readinto(data) != data.size:
            raise DatasetTruncatedError(f"{path}: file shrank while being read")
        crc = zlib.crc32(data, crc)
        rows = slice(start, start + len(records))
        heads[rows] = records[["label", "scenario_id", "seed"]]
        block[rows] = records["samples"]
        finite[rows] = np.isfinite(block[rows]).all(axis=1)
    return crc, heads, block, finite


def read_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(_HEADER.size)
        if size < _HEADER.size + _CRC.size or len(header) < _HEADER.size:
            raise DatasetTruncatedError(f"{path}: file too short for a dataset header")
        magic, fmt, gen_version, count, window_length, scenario_id, master_seed = (
            _HEADER.unpack(header))
        if magic != MAGIC:
            raise DatasetTruncatedError(f"{path}: bad magic, not a dataset file")
        if fmt != FORMAT_VERSION:
            raise DatasetVersionError(f"{path}: format version {fmt}, expected {FORMAT_VERSION}")

        record_size = _RECORD_HEAD.size + 8 * window_length
        expected = _HEADER.size + count * record_size + _CRC.size
        if size != expected:
            raise DatasetTruncatedError(
                f"{path}: expected {expected} bytes for {count} windows, found {size}"
            )

        crc, heads, block, finite = _read_records(
            f, count, window_length, zlib.crc32(header), path)
        footer = f.read(_CRC.size)
    if len(footer) != _CRC.size:
        raise DatasetTruncatedError(f"{path}: file shrank while being read")
    if crc != _CRC.unpack(footer)[0]:
        raise DatasetChecksumError(f"{path}: checksum mismatch")
    if scenario_id not in _SCENARIO_BY_ID:
        raise DatasetFieldError(f"{path}: unknown scenario id {scenario_id}")

    # The first bad window names the error; within it, label and scenario before
    # samples.
    labels, scenario_ids = heads["label"], heads["scenario_id"]
    known = np.isin(labels, list(_LABELS)) & np.isin(scenario_ids, list(_SYSTEM_IDS))
    good = known & finite
    if not good.all():
        k = int(good.argmin())
        if not known[k]:
            raise DatasetFieldError(
                f"{path}: window {k}: label {labels[k]} or scenario id {scenario_ids[k]} unknown")
        raise DatasetFieldError(f"{path}: window {k}: non-finite sample")
    windows = _row_windows(block, [_LABELS[v] for v in labels.tolist()],
                           [_SYSTEM_IDS[v] for v in scenario_ids.tolist()], heads["seed"].tolist())
    return Dataset(windows, master_seed, _SCENARIO_BY_ID[scenario_id], gen_version)
