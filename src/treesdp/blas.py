"""One BLAS thread for the block-tree interior-point iterations.

The block-tree engine makes only per-block BLAS calls and vector-length
ones.  numpy's bundled OpenBLAS splits a dot product over its threads
above 10 000 entries, and after each split call the idle thread
spin-waits, which on a 2-core host slows the per-block work that follows
about 2x: path MAXCUT at n = 4000 took 0.37-0.39 s per iteration at
OpenBLAS's default two threads and 0.20-0.21 s at one, while n = 2000 (no
split calls) took 0.11 s either way.  One thread also fixes the order of
every reduction, so the iterates no longer depend on the host's core
count.

numpy and scipy wheels each bundle their own OpenBLAS, and the engine
calls both: numpy's through its products and gufuncs, scipy's through
the LAPACK triangular and band routines.  scipy's copy spins the same
way: path MAXCUT at n = 500 took 5.1-6.0 ms per iteration in most
solves, and over 7.4 ms in 6 of 24 with scipy's OpenBLAS on two threads
against 1 of 24 with it on one (2-core host, numpy's on one throughout).
:func:`one_blas_thread` finds every bundled OpenBLAS through ctypes.
When it finds none (numpy and scipy built against another BLAS), the
block runs unchanged.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import scipy

# thread-count calls of the OpenBLAS builds numpy and scipy wheels
# bundle: scipy-openblas (numpy 2, scipy) and openblas64_ (numpy 1.x),
# ILP64 or LP64
_NAMES = tuple(
    prefix + "{}_num_threads" + suffix
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


def bundled_openblas() -> list:
    """Paths of the OpenBLAS libraries bundled in numpy's and scipy's
    wheels."""
    paths = []
    for mod in (np, scipy):
        pkg = os.path.dirname(mod.__file__)
        paths += glob.glob(os.path.join(
            os.path.dirname(pkg), f"{mod.__name__}.libs", "*openblas*"
        )) + glob.glob(os.path.join(pkg, ".dylibs", "*openblas*"))
    return sorted(paths)


@lru_cache(maxsize=1)
def _thread_calls() -> list:
    """The (get, set) thread-count functions of each bundled OpenBLAS."""
    calls = []
    for path in bundled_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _NAMES:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
                break
    return calls


_lock = threading.Lock()
_depth = 0
_saved: list = []


@contextmanager
def one_blas_thread():
    """Run the block with every bundled OpenBLAS on one thread.

    The counts are process-wide.  Blocks entered from several Python
    threads share one pin: the first entry saves the counts and sets 1,
    the last exit restores the saved counts.  A BLAS call that another
    Python thread makes outside any block meanwhile also runs on one
    thread.
    """
    global _depth, _saved
    calls = _thread_calls()
    with _lock:
        if _depth == 0:
            _saved = [get() for get, _ in calls]
            for _, set_ in calls:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_), count in zip(calls, _saved):
                    set_(count)
