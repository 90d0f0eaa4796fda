"""Host facts recorded with every result, and a measured copy bandwidth."""

from __future__ import annotations

import ctypes
import os
import platform
import time
from pathlib import Path

import numpy as np


def git_revision(root: Path) -> str:
    "The commit checked out at ``root``, read from ``.git`` directly; 'unknown' without one."
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int:
    "Size of the highest-level CPU cache in bytes, 0 when the host does not say."
    best_level, best_size = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        size = int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def blas_info() -> dict:
    "Name, version and current thread count of the BLAS numpy uses."
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    # The thread count is only visible through the loaded library itself.
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def host_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_revision": git_revision(root),
    }


def copy_bandwidth(llc: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` copy rate between two arrays of at least 4x the LLC.

    Bytes moved count the read and the write of every element.
    """
    nbytes = max(4 * llc, 256 << 20)
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {"array_bytes": src.nbytes, "llc_bytes": llc,
            "gb_per_s": 2 * src.nbytes / best / 1e9}
