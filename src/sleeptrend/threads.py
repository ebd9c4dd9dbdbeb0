"""CPUs available to the process, and the thread count of numpy's BLAS.

numpy's wheels bundle OpenBLAS under `numpy.libs` (`numpy/.dylibs` on
macOS). scipy bundles a second copy for its own LAPACK calls; the
network's matrix products go through numpy's, so that is the one set
here. OpenBLAS threads spin while they wait for work, so a BLAS thread
that shares its CPU with other work costs CPU time and gains nothing.
Without a bundled OpenBLAS every call here leaves BLAS as it is.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """(get, set) of numpy's OpenBLAS, or None when numpy bundles none."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            # the loader hands back the copy numpy already loaded
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        # scipy-openblas names, with 64-bit and with 32-bit integers
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                          None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}",
                           None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count; None without OpenBLAS."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def set_blas_threads(n: int) -> None:
    lib = _openblas()
    if lib is not None:
        lib[1](n)


@contextmanager
def blas_limited(n: int):
    """Run the body with numpy's OpenBLAS at `n` threads, then restore
    the count it had before."""
    before = blas_threads()
    if before is None:
        yield
        return
    set_blas_threads(n)
    try:
        yield
    finally:
        set_blas_threads(before)
