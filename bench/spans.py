"""Per-layer spans around the public entry points of the treesdp modules.

The tracer replaces each entry point named in ``SPANS`` by a wrapper, in
every ``treesdp`` module that binds it (``from .x import f`` copies the
name), and restores what was bound before on exit.  Time is charged to the
layer of the innermost open span, so a layer gets the self time of its
spans (their duration minus the time of the spans they enclose) and the
self times of all spans sum to the wall time of the outermost ones.  The
charges are kept per interval: ``cut`` starts a new one, so that the caller
can scale each interval by its own factor (see clock.py).

With ``peaks=True`` only the entry points in ``PEAK_LAYERS`` are wrapped,
and they record the tracemalloc peak above the allocation level at entry
instead of time.  Those entry points are siblings under ``solve_sdp``, so
resetting the peak at each entry loses nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, qualified name) -> layer
SPANS = {
    ("frontends", "read_sdpa"): "frontends.read",
    ("frontends", "solve_sdp"): "frontends.other",
    ("chordal", "sparsity_graph"): "chordal.decompose",
    ("chordal", "decompose"): "chordal.decompose",
    ("convert", "build_ctc"): "convert.build",
    ("convert", "separate_with_aux"): "convert.build",
    ("splitting", "build_unique_partition"): "convert.split",
    ("splitting", "split"): "convert.split",
    ("convert", "verify_split"): "convert.verify_split",
    ("convert", "steiner_closure"): "convert.steiner",
    ("convert", "validate_support_tree"): "convert.steiner",
    ("convert", "dualize"): "convert.dualize",
    ("ipm", "DualizedHsdeProgram.__init__"): "normal.build",
    ("normal", "TreeNormalSystem.__init__"): "normal.build",
    ("ipm", "DualizedHsdeProgram.normal_update"): "normal.assemble",
    ("normal", "TreeNormalSystem.assemble_h"): "normal.assemble",
    ("normal", "TreeNormalSystem.factor"): "normal.factor",
    ("normal", "TreeNormalSystem.solve_h"): "normal.solve",
    ("normal", "TreeNormalSystem.set_rank1"): "normal.rank1",
    ("normal", "TreeNormalSystem.solve_with_rank1"): "normal.rank1",
    ("normal", "TreeNormalSystem.apply_normal"): "normal.rank1",
    ("ipm", "adaptive_step_solve"): "ipm.other",
    ("ipm", "ConeOps.scaling_point"): "ipm.scaling",
    ("ipm", "HsdeSolver.nt_direction"): "ipm.direction",
    ("ipm", "HsdeSolver.max_step"): "ipm.step",
    ("ipm", "HsdeSolver.apply_step"): "ipm.step",
    ("ipm", "HsdeSolver.feasibility_residual"): "ipm.residual",
    ("recovery", "complete_low_rank"): "recovery.complete",
    ("recovery", "dimacs_metrics"): "recovery.metrics",
}

# Spans recorded by the benchmark itself around its own calls.
BENCH_LAYERS = ("frontends.write",)

LAYERS = tuple(dict.fromkeys(list(SPANS.values()) + list(BENCH_LAYERS)))

# entry point -> layer whose tracemalloc peak it gives
PEAK_LAYERS = {
    ("chordal", "decompose"): "chordal.peak",
    ("convert", "build_ctc"): "convert.peak",
    ("convert", "separate_with_aux"): "convert.peak",
    ("convert", "dualize"): "convert.peak",
    ("ipm", "adaptive_step_solve"): "ipm.peak",
    ("recovery", "dimacs_metrics"): "recovery.metrics_peak",
}

_NORMAL_INIT = ("normal", "TreeNormalSystem.__init__")


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.intervals``,
    ``tr.peak_mb`` and ``tr.normal_systems`` afterwards."""

    def __init__(self, peaks: bool = False):
        self.peaks = peaks
        self.intervals = [defaultdict(float)]  # per interval: layer -> raw s
        self.peak_mb = defaultdict(float)
        self.normal_systems = []  # TreeNormalSystem instances built
        self._stack = []  # layers of the open spans, innermost last
        self._t = 0.0  # when time was last charged
        self._undo = []

    # -- spans ------------------------------------------------------------
    def _timed(self, fn, layer, keep_self=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, layer):
                result = fn(*args, **kwargs)
            if keep_self:
                self.normal_systems.append(args[0])
            return result

        return traced

    def _peak(self, fn, layer):
        peak_mb = self.peak_mb

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                top = tracemalloc.get_traced_memory()[1] - base
                peak_mb[layer] = max(peak_mb[layer], top / 2**20)

        return traced

    def span(self, layer):
        """Context manager for a span around the benchmark's own code."""
        return _Span(self, layer)

    def cut(self):
        """End the current interval and start the next."""
        self._charge()
        self.intervals.append(defaultdict(float))

    def _charge(self):
        now = time.perf_counter()
        if self._stack:
            self.intervals[-1][self._stack[-1]] += now - self._t
        self._t = now

    # -- installation -----------------------------------------------------
    def __enter__(self):
        table = PEAK_LAYERS if self.peaks else SPANS
        for (mod, qual), layer in table.items():
            if self.peaks:
                make = functools.partial(self._peak, layer=layer)
            else:
                keep = (mod, qual) == _NORMAL_INIT
                make = functools.partial(self._timed, layer=layer, keep_self=keep)
            self._undo += rebind(mod, qual, make)
        if self.peaks:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.peaks:
            tracemalloc.stop()
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()
        return False


def rebind(mod, qual, make):
    """Replace the entry point ``qual`` of ``treesdp.<mod>`` by
    ``make(current)`` wherever a treesdp module or class binds it; return
    the (owner, name, previous) triples that undo the change.  Wrapping
    whatever is bound now lets wrappers nest in any order."""
    module = importlib.import_module(f"treesdp.{mod}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        owner = getattr(module, cls_name)
        current = owner.__dict__[meth]
        setattr(owner, meth, make(current))
        return [(owner, meth, current)]
    current = getattr(module, qual)
    wrapped = make(current)
    undo = []
    for name, m in list(sys.modules.items()):
        if m is None or not (name == "treesdp" or name.startswith("treesdp.")):
            continue
        for attr, val in list(vars(m).items()):
            if val is current:
                undo.append((m, attr, current))
                setattr(m, attr, wrapped)
    return undo


class _Span:
    """One span: while it is the innermost open one, time goes to its
    layer."""

    def __init__(self, tracer, layer):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.tracer._charge()
        self.tracer._stack.append(self.layer)

    def __exit__(self, *exc):
        self.tracer._charge()
        self.tracer._stack.pop()
        return False
