"""Artifact writes that never leave a partial file behind."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def write_atomic(path, data: bytes | str | Iterable) -> None:
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
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
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
