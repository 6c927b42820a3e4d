"""Dataset files: the fileio frame around one packed record per window.

    head:    generator_version u32 | count u64 | window_length u32 |
             scenario_id u8 | master_seed u64
    record:  label u8 | scenario_id u8 | generation_seed u64 | samples f64[window_length]

Both directions move records CHUNK_WINDOWS at a time through one structured
array, and a read checks every record before it builds any window.
"""

from __future__ import annotations

import struct

import numpy as np

from .fileio import Frame, FramedReader, write_framed
from .waveforms import CHUNK_WINDOWS, SCENARIOS, Dataset, Label, SystemId, Window, _row_windows

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


_FRAME = Frame("dataset", _HEADER, MAGIC, FORMAT_VERSION, 0,
               (DatasetTruncatedError, DatasetVersionError, DatasetChecksumError))
_SCENARIO_BY_ID = {s.system_id: s for s in SCENARIOS.values()}
_LABELS = {int(v): v for v in Label}
_SYSTEM_IDS = {int(v): v for v in SystemId}


def _record_dtype(window_length: int) -> np.dtype:
    """The packed on-disk record as one structured dtype."""
    return np.dtype([("label", "u1"), ("scenario_id", "u1"), ("seed", "<u8"),
                     ("samples", "<f8", (window_length,))])


def _encode(windows: list[Window], window_length: int):
    """Yield the records in chunks.  The chunk buffer is reused, so each chunk
    must be consumed before the next is drawn."""
    chunk = np.empty(min(len(windows), CHUNK_WINDOWS), _record_dtype(window_length))
    for start in range(0, len(windows), CHUNK_WINDOWS):
        part = windows[start : start + CHUNK_WINDOWS]
        records = chunk[: len(part)]
        records[["label", "scenario_id", "seed"]] = [
            (w.label, w.scenario_id, w.generation_seed) for w in part]
        np.stack([w.samples for w in part], out=records["samples"])
        yield records.view(np.uint8)


def write_dataset(d: Dataset, path) -> None:
    window_length = len(d.windows[0].samples) if d.windows else d.scenario.window_length
    if any(len(w.samples) != window_length for w in d.windows):
        raise DatasetFileError("all windows in a file must share one length")
    fields = (d.generator_version, len(d.windows), window_length, int(d.scenario.system_id),
              d.master_seed & 0xFFFFFFFFFFFFFFFF)
    write_framed(path, _FRAME, fields, _encode(d.windows, window_length))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        r = FramedReader(f, path, _FRAME)
        gen_version, count, window_length, scenario_id, master_seed = r.fields
        expected = count * (_RECORD_HEAD.size + 8 * window_length)
        if r.body_size != expected:
            raise DatasetTruncatedError(f"{path}: {count} windows need {expected} record "
                                        f"bytes, found {r.body_size}")
        # CHUNK_WINDOWS records at a time through one buffer into the sample block
        heads = np.empty(count, [("label", "u1"), ("scenario_id", "u1"), ("seed", "<u8")])
        block = np.empty((count, window_length))
        finite = np.empty(count, bool)
        if count:  # with no records the size does not bound window_length, nor its dtype's size
            chunk = np.empty(min(count, CHUNK_WINDOWS), _record_dtype(window_length))
        for start in range(0, count, CHUNK_WINDOWS):
            records = chunk[: min(CHUNK_WINDOWS, count - start)]
            r.readinto(records.view(np.uint8))
            rows = slice(start, start + len(records))
            heads[rows] = records[["label", "scenario_id", "seed"]]
            block[rows] = records["samples"]
            finite[rows] = np.isfinite(block[rows]).all(axis=1)
        r.finish()
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
