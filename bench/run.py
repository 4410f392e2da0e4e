"""Benchmark of the `treesdp solve` pipeline, run in process.

    python3 bench/run.py --workload path-maxcut --seed 1 --seconds 15 --trace 0

One operation is what `treesdp solve <file> --method M --eps 1e-8 --step
adaptive` does: read the SDPA file, solve it, write the solution factor and
the metrics JSON.  Each answer is then checked against a computation made
apart from the solver (see workloads.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` solves a warm-up, then repeats the operation for ``--seconds``
seconds (at least MIN_OPS times) and reports the medians of the end-to-end
metrics.  ``--trace 1`` runs a fixed plan instead: pairs of untraced and
traced operations, one tracemalloc pass for the peaks, and a path-MAXCUT
sweep over SWEEP_SIZES that gives each layer a fitted exponent in the
number of bags; it reports the per-layer metrics.

Times are in reference seconds (see clock.py): the host's changing speed is
sampled during every operation and divided out.

BLAS is pinned to one thread before numpy loads: on two cores the default
two OpenBLAS threads make the block-heavy workload 1.7-1.9 times slower
and leave the order of reductions, and with it the iteration count, free
to change between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SIZES = {
    "path-maxcut": 600,
    "star-arrow": 250,
    "path-max3cut-aux": 500,
    "rgraph-maxcut": 200,
}
MIN_OPS = 3
TRACE_PAIRS = 3
SWEEP_SIZES = (500, 1000, 2000)
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)

COUNTS = ("normal.solve_cols", "normal.refines", "normal.factor_ops")


def metric_units(kind):
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``
    (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Runner:
    """Runs and checks the operation on one instance; counts outcomes."""

    def __init__(self, instance, workdir, timeline):
        from treesdp import frontends

        self.frontends = frontends
        self.instance = instance
        self.timeline = timeline
        stem = f"{instance.family}-{instance.n}"
        self.problem = workdir / f"{stem}.dat-s"
        self.solution = workdir / f"{stem}.sol"
        self.metrics_path = workdir / f"{stem}.metrics.json"
        self.problem.write_text(instance.text)
        self.attempted = self.failed = self.wrong = 0

    def _write(self, outcome):
        outcome.factor.write(self.solution)
        self.metrics_path.write_text(outcome.metrics_json() + "\n")

    def op(self, tracer=None):
        """One read + solve + write, checked.  Returns its figures, or None
        if it failed."""
        from treesdp.errors import TreeSdpError
        from workloads import CheckFailed, read_factor

        fe, inst, tl = self.frontends, self.instance, self.timeline
        self.attempted += 1
        tl.tracer = tracer
        try:
            tl.start()
            sdp = fe.read_sdpa(self.problem)
            out = fe.solve_sdp(sdp, method=inst.method, eps=1e-8, step="adaptive")
            if tracer is None:
                self._write(out)
            else:
                with tracer.span("frontends.write"):
                    self._write(out)
            tl.mark("end")
        except TreeSdpError as exc:
            self.failed += 1
            print(f"{inst.family}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        finally:
            tl.tracer = None
        try:
            inst.check(read_factor(self.solution), out.y, out.omega)
        except CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            print(f"{inst.family}: check failed: {exc}", file=sys.stderr)
            return None
        raw, solve_s = tl.between("start", "end")
        _, setup_s = tl.between("start", "ipm_enter")
        _, ipm_s = tl.between("ipm_enter", "ipm_exit")
        return {
            "raw_solve_s": raw,
            "scale": solve_s / raw,
            "solve_s": solve_s,
            "setup_s": setup_s,
            "iter_s": ipm_s / max(out.iterations, 1),
            "iters": out.iterations,
            "L": out.metrics.L,
            "ell": out.ell,
        }


def median_of(ops, key):
    return statistics.median(o[key] for o in ops)


def untraced(runner, seconds):
    runner.op()  # warm-up: caches, lazy imports, first-touch pages
    ops = []
    start = time.perf_counter()
    while runner.attempted <= MIN_OPS or time.perf_counter() - start < seconds:
        r = runner.op()
        if r is not None:
            ops.append(r)
    if not ops:
        return None
    metrics = {k: median_of(ops, k) for k in ops[0]}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{len(ops)} timed operations; raw wall-time median "
          f"{median_of(ops, 'raw_solve_s'):.4g} s; median reference/raw "
          f"{median_of(ops, 'scale'):.4g}")
    if len({o["iters"] for o in ops}) != 1 or len({o["L"] for o in ops}) != 1:
        runner.wrong += 1
        print("iteration count or L differs between identical solves", file=sys.stderr)
    return metrics


def traced_op(runner):
    """One traced operation: its figures plus per-layer self times in
    reference seconds, each interval between host samples scaled by its
    own factor, and the normal engine's counters."""
    from spans import LAYERS, Tracer

    with Tracer() as tr:
        r = runner.op(tr)
    if r is None:
        return None
    factors = runner.timeline.factors()
    r["layers"] = {
        layer: sum(f * iv[layer] for f, iv in zip(factors, tr.intervals))
        for layer in LAYERS
    }
    systems = tr.normal_systems
    r["normal.solve_cols"] = sum(s.n_solve_columns for s in systems)
    r["normal.refines"] = sum(s.n_refine for s in systems)
    r["normal.factor_ops"] = sum(s.n_factor * s.last_factor_ops for s in systems)
    return r


def fit_exponent(xs, ys):
    """Least-squares slope of log ys against log xs."""
    import numpy as np

    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0.0):
        return 0.0
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def traced(runner, workdir, seed, sweep_sizes=SWEEP_SIZES):
    import numpy as np

    from spans import LAYERS, PEAK_LAYERS, Tracer
    from workloads import path_maxcut

    runner.op()  # warm-up
    plain, tr_ops = [], []
    for _ in range(TRACE_PAIRS):
        a, b = runner.op(), traced_op(runner)
        if a is not None:
            plain.append(a)
        if b is not None:
            tr_ops.append(b)
    with Tracer(peaks=True) as peak:
        runner.op()
    sweep = []
    for n in sweep_sizes:
        inst = path_maxcut(n, np.random.default_rng(seed))
        sr = Runner(inst, workdir, runner.timeline)
        r = traced_op(sr)
        runner.attempted += sr.attempted
        runner.failed += sr.failed
        runner.wrong += sr.wrong
        if r is not None:
            sweep.append(r)
    if not plain or not tr_ops or len(sweep) != len(sweep_sizes):
        return None

    m = {f"{layer}_s": statistics.median(o["layers"][layer] for o in tr_ops)
         for layer in LAYERS}
    for key in COUNTS:
        m[key] = median_of(tr_ops, key)
    for layer in dict.fromkeys(PEAK_LAYERS.values()):
        m[f"{layer}_mb"] = peak.peak_mb[layer]
    m["trace.overhead"] = median_of(tr_ops, "solve_s") / median_of(plain, "solve_s") - 1.0
    m["trace.remainder_s"] = statistics.median(
        o["solve_s"] - sum(o["layers"].values()) for o in tr_ops
    )
    ells = [r["ell"] for r in sweep]
    for layer in LAYERS:
        m[f"{layer}.exp"] = fit_exponent(ells, [r["layers"][layer] for r in sweep])
    m["ipm.iter.exp"] = fit_exponent(ells, [r["iter_s"] for r in sweep])
    m["solve.exp"] = fit_exponent(ells, [r["solve_s"] for r in sweep])
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treesdp" / "__init__.py").is_file():
        print(f"error: no treesdp sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import numpy as np

    from clock import Timeline
    from workloads import FAMILIES

    instance = FAMILIES[args.workload](SIZES[args.workload], np.random.default_rng(args.seed))
    workdir = BENCH_DIR / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    timeline = Timeline()
    try:
        runner = Runner(instance, workdir, timeline)
        if args.trace:
            metrics = traced(runner, workdir, args.seed)
            units = metric_units("per_layer")
        else:
            metrics = untraced(runner, args.seconds)
            units = metric_units("end_to_end")
    finally:
        timeline.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if metrics is None:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
