"""Environment hygiene and the host stamp printed at the top of every run."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from typing import Dict, List

# Settings that change what the program computes with: the sweep engine
# and worker count, a remote encoder, and BLAS thread pools.
SCRUBBED = ("REPRO_REMOTE_URL", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCRUBBED_PREFIXES = ("REPRO_SWEEP_",)


def scrub_environment() -> Dict[str, str]:
    """Remove the settings above from ``os.environ``; returns what was removed.

    Must run before numpy is imported: OpenBLAS reads its thread count
    once, at load.
    """
    removed = {}
    for name in list(os.environ):
        if name in SCRUBBED or name.startswith(SCRUBBED_PREFIXES):
            removed[name] = os.environ.pop(name)
    return removed


def blas_threads() -> str:
    """OpenBLAS's resolved thread count, read from numpy's bundled library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return str(getter())
    return "unknown (no bundled scipy-openblas)"


def blas_library() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def stamp(removed: Dict[str, str]) -> List[str]:
    import numpy

    lines = [
        f"host: cores={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas_library()} blas_threads={blas_threads()}",
    ]
    if removed:
        lines.append(
            "removed from environment: "
            + " ".join(f"{k}={v!r}" for k, v in sorted(removed.items()))
        )
    return lines
