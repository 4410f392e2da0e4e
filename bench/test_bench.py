"""Tests of the benchmark itself: its checks must reject wrong answers, and
every workload must run end to end at a tiny size.

    python3 -m pytest bench
"""

import io
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from clock import REF_SAMPLE_S, HostSpeed, Timeline  # noqa: E402
from spans import rebind  # noqa: E402
import workloads as wl  # noqa: E402
from treesdp import frontends, ipm  # noqa: E402

TINY = {
    "path-maxcut": 8,
    "star-arrow": 6,
    "path-max3cut-aux": 7,
    "rgraph-maxcut": 40,
}


@pytest.fixture
def clock():
    c = Timeline()
    yield c
    c.close()


def solved(family, tmp_path, clock):
    """Instance, factor read back, and outcome of one checked solve at the
    tiny size."""
    inst = wl.FAMILIES[family](TINY[family], np.random.default_rng(0))
    runner = run.Runner(inst, tmp_path, clock)
    assert runner.op() is not None and runner.failed == 0
    out = frontends.solve_sdp(
        frontends.read_sdpa(runner.problem), method=inst.method, eps=1e-8
    )
    return inst, wl.read_factor(runner.solution), out


def rejects(inst, u, y, omega):
    with pytest.raises(wl.CheckFailed):
        inst.check(u, y, omega)


def normalized(u):
    return u / np.linalg.norm(u, axis=1, keepdims=True)


@pytest.mark.parametrize("family", ["path-maxcut", "path-max3cut-aux"])
def test_path_cut_checks_reject_perturbed_answers(family, tmp_path, clock):
    inst, u, out = solved(family, tmp_path, clock)
    inst.check(u, out.y, out.omega)
    rejects(inst, 1.01 * u, out.y, out.omega)  # diag(X) != 1
    rejects(inst, np.hstack([u, np.zeros((u.shape[0], out.omega))]), out.y, out.omega)
    same = np.ones((u.shape[0], 1))  # feasible, cuts nothing
    rejects(inst, same, out.y, out.omega)
    rng = np.random.default_rng(3)
    rejects(inst, normalized(u + 0.05 * rng.standard_normal(u.shape)), out.y, out.omega)


def test_max3cut_check_rejects_violated_inequality(tmp_path, clock):
    inst, u, out = solved("path-max3cut-aux", tmp_path, clock)
    alternating = np.array([[(-1.0) ** i] for i in range(u.shape[0])])
    rejects(inst, alternating, out.y, out.omega)  # X[i,i+1] = -1 < -1/2


def test_star_check_rejects_perturbed_answers(tmp_path, clock):
    inst, u, out = solved("star-arrow", tmp_path, clock)
    inst.check(u, out.y, out.omega)
    bumped = u.copy()
    bumped[-1] *= 1.01  # 2 X[i,hub] != b_i
    rejects(inst, bumped, out.y, out.omega)
    shifted = u.copy()
    shifted[-1] *= 1.5  # constraints kept, trace above the optimum
    shifted[:-1] /= 1.5
    rejects(inst, shifted, out.y, out.omega)


def test_sandwich_rejects_suboptimal_primal_and_dual(tmp_path, clock):
    inst, u, out = solved("rgraph-maxcut", tmp_path, clock)
    inst.check(u, out.y, out.omega)
    rng = np.random.default_rng(5)
    rejects(inst, normalized(u + 0.05 * rng.standard_normal(u.shape)), out.y, out.omega)
    # a uniform shift of y leaves the lower bound unchanged; a random one
    # moves it off the optimum
    rejects(inst, u, out.y + 0.01 * rng.standard_normal(out.y.shape), out.omega)
    rejects(inst, 1.01 * u, out.y, out.omega)


def test_min_eigenvalue_matches_dense():
    rng = np.random.default_rng(2)
    a = sp.random(120, 120, density=0.05, random_state=2) + sp.diags(rng.random(120))
    a = a + a.T
    dense = np.linalg.eigvalsh(a.toarray())[0]
    assert abs(wl.min_eigenvalue(a) - dense) <= 1e-8 * (1 + abs(dense))


def test_seed_changes_the_file_not_the_problem():
    a = wl.path_max3cut_aux(9, np.random.default_rng(1))
    b = wl.path_max3cut_aux(9, np.random.default_rng(2))
    assert a.text != b.text
    pa = frontends.read_sdpa(io.StringIO(a.text))
    pb = frontends.read_sdpa(io.StringIO(b.text))
    assert pa.senses == pb.senses and np.array_equal(pa.b, pb.b)
    for x, y in zip([pa.cost] + pa.constraints, [pb.cost] + pb.constraints):
        assert np.array_equal(x.rows, y.rows) and np.array_equal(x.cols, y.cols)
        assert np.array_equal(x.vals, y.vals)


@pytest.mark.parametrize("family", sorted(TINY))
def test_every_workload_runs_at_tiny_size(family, tmp_path, clock):
    inst = wl.FAMILIES[family](TINY[family], np.random.default_rng(1))
    runner = run.Runner(inst, tmp_path, clock)
    metrics = run.untraced(runner, 0.0)
    assert set(metrics) >= set(run.metric_units("end_to_end"))
    assert runner.failed == 0 and runner.wrong == 0
    assert runner.attempted == run.MIN_OPS + 1
    assert all(metrics[k] > 0 for k in run.metric_units("end_to_end"))


def test_traced_plan_reports_every_layer(tmp_path, clock):
    inst = wl.FAMILIES["path-max3cut-aux"](TINY["path-max3cut-aux"], np.random.default_rng(1))
    runner = run.Runner(inst, tmp_path, clock)
    metrics = run.traced(runner, tmp_path, 1, sweep_sizes=(8, 16, 32))
    assert set(metrics) >= set(run.metric_units("per_layer"))
    assert runner.failed == 0 and runner.wrong == 0
    assert metrics["convert.steiner_s"] > 0 and metrics["normal.solve_cols"] > 0
    assert metrics["trace.remainder_s"] >= 0
    # the tracer's wrappers are gone afterwards
    assert not hasattr(frontends.solve_sdp, "__wrapped__")
    assert not hasattr(ipm.TreeNormalSystem.factor, "__wrapped__")


def test_injected_work_counts_one_for_one(tmp_path, clock):
    """K extra runs of the host-speed kernel inside every solve_h call, not
    taken as samples, cost K * REF_SAMPLE_S reference seconds each: solve_s
    and the normal.solve layer must rise by that much."""
    inst = wl.FAMILIES["path-maxcut"](60, np.random.default_rng(1))
    runner = run.Runner(inst, tmp_path, clock)
    extra, calls, inject = HostSpeed(), [0], [False]

    def padded(fn):
        def call(*args, **kwargs):
            if inject[0]:
                calls[0] += 1
                for _ in range(2):
                    extra.sample()
            return fn(*args, **kwargs)

        return call

    undo = rebind("normal", "TreeNormalSystem.solve_h", padded)
    try:
        runner.op()
        ops = {False: [], True: []}
        for _ in range(3):
            for on in (False, True):
                inject[0], calls[0] = on, 0
                ops[on].append((run.traced_op(runner), calls[0]))
    finally:
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)
    assert runner.failed == 0
    expected = 2 * REF_SAMPLE_S * statistics.median(c for _, c in ops[True])
    for key in ("solve_s", "normal.solve"):
        def med(on):
            return statistics.median(
                r[key] if key in r else r["layers"][key] for r, _ in ops[on]
            )

        rise = med(True) - med(False)
        print(f"{key}: rise {rise:.4f} s, expected {expected:.4f} s")
        assert abs(rise - expected) <= 0.15 * expected


def test_host_sample_is_not_slowed_by_cache_pollution():
    """A sample taken right after work that sweeps the caches reads the same
    as the next one, so a change that pollutes caches is not divided out."""
    speed = HostSpeed()
    ratios = []
    for _ in range(25):
        np.ones(4_000_000).cumsum().sum()  # 32 MB read and written twice
        after = speed.sample()
        ratios.append(after / speed.sample())
    print(f"after/next sample time: median {statistics.median(ratios):.4f}")
    assert statistics.median(ratios) <= 1.03


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "path-maxcut",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
