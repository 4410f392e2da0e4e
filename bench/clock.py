"""Wall-clock marks of one operation, each paired with a host-speed sample.

The host is shared: the speed of a core changes by up to 1.8 times, often
within a second, as other tenants come and go.  A sample times a short
fixed kernel of interpreter work and small numpy calls that does not touch
treesdp.  Samples are taken at the start and end of an operation, at the
IPM's entry and exit, and at the entry of the pipeline's frequent calls
(``PROBES``) once at least MIN_GAP_S has passed since the last sample.
Each interval between two samples is converted to reference seconds by the
factor ``REF_SAMPLE_S / sqrt(k_before * k_after)``, where k are the two
kernel times; the time spent sampling is left out of every interval.  The
host's speed cancels, while work added to treesdp adds its reference
seconds one for one (``test_injected_work_counts_one_for_one``) and is not
divided out by its effect on the caches
(``test_host_sample_is_not_slowed_by_cache_pollution``).
"""

from __future__ import annotations

import functools
import math
import time

from spans import rebind

# Kernel time on a quiet core of the reference machine (a 2-core VM at
# 2.0 GHz); it defines the reference second.
REF_SAMPLE_S = 0.0042
MIN_GAP_S = 0.05

# entry points that take a sample when MIN_GAP_S has passed: per-constraint
# calls in the set-up, per-iteration calls in the IPM, and the back end
PROBES = (
    ("chordal", "decompose"),
    ("splitting", "split"),
    ("convert", "verify_split"),
    ("convert", "steiner_closure"),
    ("convert", "dualize"),
    ("ipm", "DualizedHsdeProgram.__init__"),
    ("ipm", "ConeOps.scaling_point"),
    ("normal", "TreeNormalSystem.solve_h"),
    ("recovery", "complete_low_rank"),
    ("recovery", "dimacs_metrics"),
)


class HostSpeed:
    """The sampling kernel."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = 2.0 * np.eye(4) + 0.1
        self.rhs = np.ones((4, 3))

    def sample(self):
        """Seconds the kernel takes now.  One untimed pass first refills
        the caches, so that work which swept them just before (a change to
        treesdp, say) does not slow the sample and get divided out."""
        self._run(1, 256)
        t0 = time.perf_counter()
        self._run(300, 4500)
        return time.perf_counter() - t0

    def _run(self, solves, updates):
        np = self.np
        for _ in range(solves):
            low = np.linalg.cholesky(self.small)
            np.stack([low @ self.rhs, self.rhs]).sum()
        counts = {}
        for i in range(updates):
            counts[i & 255] = counts.get(i & 255, 0) + i


class Timeline:
    """Installs the marks on the treesdp modules; ``close`` removes them.
    A tracer set in ``tracer`` sees each sample as a span of its own
    (``host.sample``), so samples stay out of the layers' self times, and
    starts a new interval after it, so its intervals match ``factors``."""

    def __init__(self):
        self.speed = HostSpeed()
        self.marks = []  # (label, t_before_sample, kernel_s, t_after_sample)
        self.tracer = None
        self._undo = rebind("ipm", "adaptive_step_solve", self._bracket)
        for mod, qual in PROBES:
            self._undo += rebind(mod, qual, self._probe)

    def _bracket(self, fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            self.mark("ipm_enter")
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark("ipm_exit")

        return stamped

    def _probe(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self.marks and time.perf_counter() - self.marks[-1][3] >= MIN_GAP_S:
                self.mark("probe")
            return fn(*args, **kwargs)

        return probed

    def close(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []

    def mark(self, label):
        if self.tracer is None:
            self._sample(label)
        else:
            with self.tracer.span("host.sample"):
                self._sample(label)
            self.tracer.cut()

    def _sample(self, label):
        t0 = time.perf_counter()
        kernel = self.speed.sample()
        self.marks.append((label, t0, kernel, time.perf_counter()))

    def start(self):
        self.marks.clear()
        self.mark("start")

    def factors(self):
        """Reference seconds per raw second in each interval: before the
        first mark, between each two consecutive marks, after the last."""
        ks = [m[2] for m in self.marks]
        ks = [ks[0]] + ks + [ks[-1]]
        return [REF_SAMPLE_S / math.sqrt(a * b) for a, b in zip(ks, ks[1:])]

    def between(self, first, last):
        """(raw, reference) seconds from the first mark labelled ``first``
        to the last mark labelled ``last``, sampling time left out."""
        labels = [m[0] for m in self.marks]
        i = labels.index(first)
        j = len(labels) - 1 - labels[::-1].index(last)
        factors = self.factors()
        raw = ref = 0.0
        for t in range(i + 1, j + 1):
            gap = self.marks[t][1] - self.marks[t - 1][3]
            raw += gap
            ref += gap * factors[t]
        return raw, ref
