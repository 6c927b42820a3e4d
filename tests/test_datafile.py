import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hifbench.datafile import (
    CHUNK_WINDOWS,
    FORMAT_VERSION,
    MAGIC,
    _HEADER,
    DatasetChecksumError,
    DatasetFieldError,
    DatasetFileError,
    DatasetTruncatedError,
    DatasetVersionError,
    read_dataset,
    write_dataset,
)
from hifbench.waveforms import SCENARIOS, Dataset, Label, SystemId, Window


def test_roundtrip_is_lossless(small_dataset, tmp_path):
    path = tmp_path / "d.dataset"
    write_dataset(small_dataset, path)
    again = read_dataset(path)
    assert again == small_dataset
    for a, b in zip(again.windows, small_dataset.windows):
        assert np.array_equal(a.samples, b.samples)


def test_write_is_deterministic(small_dataset, tmp_path):
    p1, p2 = tmp_path / "a", tmp_path / "b"
    write_dataset(small_dataset, p1)
    write_dataset(small_dataset, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_handcrafted_dataset_roundtrip(tmp_path):
    w = Window(np.linspace(-1.0, 1.0, SCENARIOS["target"].window_length),
               Label.NORMAL, SystemId.TARGET, 42)
    d = Dataset([w], master_seed=9, scenario=SCENARIOS["target"])
    path = tmp_path / "one.dataset"
    write_dataset(d, path)
    assert read_dataset(path) == d


def test_bad_magic_rejected(small_dataset, tmp_path):
    path = tmp_path / "d.dataset"
    write_dataset(small_dataset, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetTruncatedError):
        read_dataset(path)


def test_unsupported_version_rejected(small_dataset, tmp_path):
    path = tmp_path / "d.dataset"
    write_dataset(small_dataset, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetVersionError):
        read_dataset(path)


def test_corrupted_payload_fails_checksum(small_dataset, tmp_path):
    path = tmp_path / "d.dataset"
    write_dataset(small_dataset, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetChecksumError):
        read_dataset(path)


def test_truncated_file_rejected(small_dataset, tmp_path):
    path = tmp_path / "d.dataset"
    write_dataset(small_dataset, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(DatasetTruncatedError):
        read_dataset(path)


def test_tiny_file_rejected(tmp_path):
    path = tmp_path / "d.dataset"
    path.write_bytes(b"short")
    with pytest.raises(DatasetTruncatedError):
        read_dataset(path)


def test_mixed_window_lengths_rejected(tmp_path):
    sc = SCENARIOS["source"]
    w1 = Window(np.zeros(sc.window_length), Label.HIF, SystemId.SOURCE, 1)
    w2 = Window(np.zeros(sc.window_length - 1), Label.HIF, SystemId.SOURCE, 2)
    d = Dataset([w1, w2], master_seed=0, scenario=sc)
    with pytest.raises(DatasetFileError):
        write_dataset(d, tmp_path / "bad.dataset")


def recrc(blob: bytearray) -> bytes:
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("offset,value", [
    (_HEADER.size, 7),  # first window's label byte
    (_HEADER.size + 1, 9),  # first window's scenario byte
    (_HEADER.size - 9, 200),  # the header's scenario byte
])
def test_unknown_label_or_scenario_byte_rejected(small_dataset, tmp_path, offset, value):
    path = tmp_path / "d.dataset"
    write_dataset(small_dataset, path)
    blob = bytearray(path.read_bytes())
    blob[offset] = value
    path.write_bytes(recrc(blob))
    with pytest.raises(DatasetFieldError):
        read_dataset(path)


def reference_encode(d: Dataset) -> bytes:
    """The file bytes as a per-record struct.pack writer lays them out."""
    window_length = len(d.windows[0].samples) if d.windows else d.scenario.window_length
    parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, d.generator_version, len(d.windows),
                          window_length, int(d.scenario.system_id),
                          d.master_seed & 0xFFFFFFFFFFFFFFFF)]
    for w in d.windows:
        parts.append(struct.pack("<BBQ", int(w.label), int(w.scenario_id), w.generation_seed))
        parts.append(np.ascontiguousarray(w.samples, dtype="<f8").tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def synthetic_dataset(count: int, window_length: int = 300, seed: int = 0) -> Dataset:
    """count random windows, with generation seeds across the whole u64 range."""
    rng = np.random.default_rng(seed)
    windows = [Window(rng.standard_normal(window_length), Label(int(rng.integers(2))),
                      SystemId.SOURCE, int(rng.integers(2**64, dtype=np.uint64)))
               for _ in range(count)]
    return Dataset(windows, master_seed=seed, scenario=SCENARIOS["source"])


@pytest.mark.parametrize("case", ["small", "empty", "one", "chunk_plus_one"])
def test_bytes_equal_reference_encoder(small_dataset, tmp_path, case):
    d = {"small": small_dataset,
         "empty": Dataset([], master_seed=3, scenario=SCENARIOS["target"]),
         "one": synthetic_dataset(1),
         "chunk_plus_one": synthetic_dataset(CHUNK_WINDOWS + 1)}[case]
    path = tmp_path / "d.dataset"
    write_dataset(d, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == hashlib.sha256(reference_encode(d)).hexdigest())
    assert read_dataset(path) == d


def test_checksum_is_checked_before_fields(small_dataset, tmp_path):
    path = tmp_path / "d.dataset"
    write_dataset(small_dataset, path)
    blob = bytearray(path.read_bytes())
    blob[_HEADER.size] = 7  # first window's label byte, with the stale CRC kept
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetChecksumError):
        read_dataset(path)


@pytest.mark.parametrize("bad_label,nan_sample,named", [
    (CHUNK_WINDOWS + 5, CHUNK_WINDOWS + 9, CHUNK_WINDOWS + 5),
    (CHUNK_WINDOWS + 9, CHUNK_WINDOWS + 5, CHUNK_WINDOWS + 5),
    (CHUNK_WINDOWS + 5, CHUNK_WINDOWS + 5, CHUNK_WINDOWS + 5),
])
def test_field_error_names_first_bad_window(tmp_path, bad_label, nan_sample, named):
    d = synthetic_dataset(2 * CHUNK_WINDOWS + 10, window_length=20)
    path = tmp_path / "d.dataset"
    write_dataset(d, path)
    record = 10 + 8 * 20
    blob = bytearray(path.read_bytes())
    blob[_HEADER.size + bad_label * record] = 7
    struct.pack_into("<d", blob, _HEADER.size + nan_sample * record + 10 + 8 * 3, float("nan"))
    path.write_bytes(recrc(blob))
    kind = "label" if named == bad_label else "non-finite"
    with pytest.raises(DatasetFieldError, match=f"window {named}: {kind}"):
        read_dataset(path)


@pytest.fixture(scope="module")
def chunked_blob(tmp_path_factory):
    """A file of CHUNK_WINDOWS + 1 short windows, so that records span two chunks."""
    path = tmp_path_factory.mktemp("chunked") / "d.dataset"
    write_dataset(synthetic_dataset(CHUNK_WINDOWS + 1, window_length=20), path)
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(draw=st.data(), fix_crc=st.booleans())
def test_any_flipped_byte_reads_or_raises_a_file_error(chunked_blob, tmp_path_factory, draw,
                                                         fix_crc):
    blob = bytearray(chunked_blob)
    pos = draw.draw(st.integers(0, len(blob) - 1), label="position")
    blob[pos] ^= draw.draw(st.integers(1, 255), label="xor")
    path = tmp_path_factory.mktemp("flip") / "d.dataset"
    path.write_bytes(recrc(blob) if fix_crc else bytes(blob))
    try:
        assert isinstance(read_dataset(path), Dataset)
        assert fix_crc or pos >= len(blob) - 4  # else the stale CRC no longer matches
    except DatasetFileError:
        pass


@settings(max_examples=100, deadline=None)
@given(draw=st.data())
def test_any_truncation_raises_a_file_error(chunked_blob, tmp_path_factory, draw):
    path = tmp_path_factory.mktemp("cut") / "d.dataset"
    path.write_bytes(chunked_blob[: draw.draw(st.integers(0, len(chunked_blob) - 1))])
    with pytest.raises(DatasetTruncatedError):
        read_dataset(path)


def traced_peak(fn, *args):
    """(result, bytes of traced allocation peak above the level fn started at)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_chunked_io_bounds_memory(tmp_path):
    d = synthetic_dataset(1000)
    path = tmp_path / "d.dataset"
    _, write_peak = traced_peak(write_dataset, d, path)
    size = path.stat().st_size
    assert write_peak < size / 4
    back, read_peak = traced_peak(read_dataset, path)
    assert read_peak < 1.25 * size
    assert back == d
