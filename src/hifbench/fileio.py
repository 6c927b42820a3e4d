"""Atomic artifact writes, and the one frame of dataset and checkpoint files:
a head of magic 8s | version u32 | the kind's own fields, the kind's body, and
a crc32 u32 of every byte before it, all little-endian.  Neither write_framed
nor a FramedReader holds the whole file."""

from __future__ import annotations

import itertools
import os
import struct
import zlib
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

_CRC = struct.Struct("<I")


class Frame(NamedTuple):
    """A framed file kind: its name for messages, its head (whose first two
    fields are the magic and the version), the values those must hold, its
    fewest body bytes, and the errors for a short or foreign file, another
    version and a bad checksum."""
    kind: str
    head: struct.Struct
    magic: bytes
    version: int
    min_body: int
    errors: tuple[type[Exception], type[Exception], type[Exception]]


def write_atomic(path, data: str | Iterable) -> None:
    """Write data (str as UTF-8, or an iterable of bytes-like chunks, each
    written before the next is drawn) to path through a temporary file in the
    same directory, renamed over path once complete.

    A reader, or a run interrupted mid-write, sees the previous file or the
    new one, never part of either.  The data is not fsynced, so this guards
    against a failed or killed process, not against power loss.  A failed
    write raises an OSError that names path, not the temporary file.
    """
    path = Path(path)
    if isinstance(data, str):
        data = (data.encode("utf-8"),)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            for chunk in data:
                f.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_framed(path, frame: Frame, fields: tuple, body: Iterable) -> None:
    """Write frame's head with fields, body's chunks (each written before the
    next is drawn, so body may reuse one buffer) and the CRC atomically."""
    def framed(crc=0):
        for chunk in itertools.chain([frame.head.pack(frame.magic, frame.version, *fields)], body):
            crc = zlib.crc32(chunk, crc)
            yield chunk
        yield _CRC.pack(crc)
    write_atomic(path, framed())


class FramedReader:
    """The file f at path, read past its head: fields holds the head's fields
    after the version, body_size the bytes between the head and the footer.
    It checks the size, then the magic, then the version, continues the CRC
    over every read, and checks the footer in finish()."""

    def __init__(self, f, path, frame: Frame):
        self._f, self._path, self._frame, self._crc = f, path, frame, 0
        short, bad_version, _ = frame.errors
        self.body_size = os.fstat(f.fileno()).st_size - frame.head.size - _CRC.size
        if self.body_size < frame.min_body:
            raise short(f"{path}: too short to be a {frame.kind} file")
        magic, version, *fields = frame.head.unpack(self.read(frame.head.size))
        if magic != frame.magic:
            raise short(f"{path}: bad magic, not a {frame.kind} file")
        if version != frame.version:
            raise bad_version(f"{path}: {frame.kind} version {version}, expected {frame.version}")
        self.fields = tuple(fields)

    def readinto(self, buf):
        """Fill the contiguous buffer buf from the file, and return it."""
        view = memoryview(buf).cast("B")
        if self._f.readinto(view) != view.nbytes:
            raise self._frame.errors[0](f"{self._path}: file shrank while being read")
        self._crc = zlib.crc32(view, self._crc)
        return buf

    def read(self, n: int) -> bytearray:
        return self.readinto(bytearray(n))

    def finish(self) -> None:
        """Check the footer against the CRC of everything read before it."""
        crc = self._crc
        if self.read(_CRC.size) != _CRC.pack(crc):
            raise self._frame.errors[2](f"{self._path}: checksum mismatch")
