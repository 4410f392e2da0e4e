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

:func:`one_blas_thread` finds numpy's bundled OpenBLAS through ctypes.
When it finds none (numpy built against another BLAS), the block runs
unchanged.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

# thread-count calls of the OpenBLAS builds numpy wheels bundle:
# scipy-openblas (numpy 2) and openblas64_ (numpy 1.x), ILP64 or LP64
_NAMES = tuple(
    prefix + "{}_num_threads" + suffix
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


def bundled_openblas() -> list:
    """Paths of the OpenBLAS libraries bundled in numpy's wheel."""
    pkg = os.path.dirname(np.__file__)
    return sorted(
        glob.glob(
            os.path.join(os.path.dirname(pkg), "numpy.libs", "*openblas*")
        )
        + glob.glob(os.path.join(pkg, ".dylibs", "*openblas*"))
    )


@lru_cache(maxsize=1)
def _thread_calls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
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
                return get, set_
    return None


_lock = threading.Lock()
_depth = 0
_saved = 0


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    The count is process-wide.  Blocks entered from several Python
    threads share one pin: the first entry saves the count and sets 1,
    the last exit restores the saved count.  A BLAS call that another
    Python thread makes outside any block meanwhile also runs on one
    thread.
    """
    global _depth, _saved
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
