import struct
import zlib

import numpy as np
import pytest

from hifbench.datafile import (
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
