"""The environment block recorded with every run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # ask the loaded OpenBLAS itself how many threads it will use
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                info["threads"] = int(query())
                return info
    return info


def _git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's sources; identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((src / "hifbench").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": _git_rev(root),
        "src_sha256": _source_digest(src),
        "loadavg_start": list(os.getloadavg()),
    }
