"""One BLAS thread per loaded OpenBLAS for the duration of a block.

NumPy and SciPy each ship their own OpenBLAS, and each starts a pool of
worker threads that spin-wait after every threaded call. Code that makes
thousands of tiny BLAS calls between sparse solves (the optimizer's modal
analyses) then has two spinning pools competing with the main thread for
the cores. The optimizer's probe batches and the Bloch oracle's
wavenumbers are split across forked processes (``forkpool``), where a pool
per process would do the same; both run with one thread, which the forked
children inherit, and so no result's bits depend on the number of
processes.
``single_threaded`` sets every loaded OpenBLAS to one thread and
restores each library's previous count on exit. Despite its name,
``openblas_set_num_threads_local`` changes the library's count for every
thread of the process (checked with scipy-openblas 0.3.31), so enter the
block from one thread at a time.

Only OpenBLAS builds already mapped into the process are touched (found
through /proc/self/maps, opened without loading); elsewhere, or when no
library exports ``openblas_set_num_threads_local``, the block runs as is.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
import sys


def _thread_setters() -> list:
    """``openblas_set_num_threads_local`` of every OpenBLAS in the process."""
    if not sys.platform.startswith("linux"):
        return []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:   # not a loaded library (e.g. a deleted file)
            continue
        fn = getattr(lib, "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = ctypes.c_int   # the previous thread count
            setters.append(fn)
    return setters


@contextlib.contextmanager
def single_threaded():
    """Run the block (or, as a decorator, each call) with one BLAS thread."""
    setters = _thread_setters()
    previous = [fn(1) for fn in setters]
    try:
        yield
    finally:
        for fn, count in zip(setters, previous):
            fn(count)
