"""Acceptance gate: the eleven end-to-end criteria, one test each.

Each test prints one ``[criterion NN] name: PASS|FAIL`` line (visible in
captured output; the pytest -v status line mirrors it) and then asserts,
so a failure is both visible and red.  Beside criterion 06, a memory bound
on the DIMACS metrics at n = 4000 and a count of the sweep steps along a
path measure no wall time.

Oracles used here: the dense reference solver (same interior-point
machinery, no conversion, dense normal matrix), brute-force set-cover
enumeration, dense eigendecompositions, and analytic optima derived in
the module test files.
"""

import time
import tracemalloc

import numpy as np

from treesdp.chordal import (
    Graph,
    TreeDecomposition,
    decompose,
    sparsity_graph,
)
from treesdp.convert import ConeSpec, build_ctc, dualize, separate_with_aux
from treesdp.frontends import (
    dense_reference_solve,
    gen_lovasz_theta,
    gen_maxkcut,
    solve_sdp,
)
from treesdp.ipm import (
    DenseHsdeProgram,
    DualizedHsdeProgram,
    HsdeSolver,
    SolverOptions,
    short_step_solve,
)
from treesdp.normal import TreeNormalSystem
from treesdp.recovery import LowRankFactor, complete_low_rank, dimacs_metrics
from treesdp.splitting import build_unique_partition, split

from test_splitting import brute_force_min_cover, random_instance
from util import (
    SparseSymmetric,
    dot_sym,
    make_problem,
    measured_pattern,
    offdiag_block_counts,
    path_rayleigh_problem,
    plain_row_coupling,
    random_bag_supported_matrix,
    random_connected_graph,
    random_partially_separable_problem,
    random_scaling_data,
    row_assemble,
    stack_triplets,
    star_arrow_problem,
)


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def oracle_objective(sdp) -> float:
    x, _y, _s = dense_reference_solve(sdp)
    return float(dot_sym(sdp.cost, x))


# ---------------------------------------------------------------------------
# 1. pipeline-vs-oracle equivalence on random partially separable instances
# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 21))
        m = int(rng.integers(2, 7))
        sdp, _td = random_partially_separable_problem(
            rng, n, m, ineq_prob=0.25
        )
        obj_oracle = oracle_objective(sdp)
        # the unconditional pipeline variant: a constraint whose split
        # pieces land in non-adjacent bags of the recomputed decomposition
        # is chained through the connecting bags by auxiliary scalars
        obj_pipe = solve_sdp(sdp, method="dctc-aux").objective
        rel = abs(obj_pipe - obj_oracle) / (1.0 + abs(obj_oracle))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    _line(1, "oracle equivalence (50 random instances)", ok,
          f"worst rel dev {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. Lovász theta analytic values through the full pipeline
# ---------------------------------------------------------------------------


def test_criterion_02_lovasz_theta_values():
    cases = []
    for n in (3, 4, 5):
        cases.append((f"empty-{n}", Graph(n, []), float(n), 1e-6))
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    cases.append(("K4", k4, 1.0, 1e-6))
    cases.append(("C5", cycle_graph(5), np.sqrt(5.0), 1e-5))
    devs = {}
    for name, graph, expected, tol in cases:
        theta = -solve_sdp(gen_lovasz_theta(graph)).objective
        devs[name] = (abs(theta - expected), tol)
    ok = all(dev <= tol for dev, tol in devs.values())
    worst = max(dev for dev, _ in devs.values())
    _line(2, "Lovász theta analytic values", ok, f"worst dev {worst:.2e}")
    for name, (dev, tol) in devs.items():
        assert dev <= tol, f"{name}: deviation {dev:.3e} > {tol:g}"


# ---------------------------------------------------------------------------
# 3. MAXCUT / MAX k-CUT single-edge analytic optima
# ---------------------------------------------------------------------------


def test_criterion_03_single_edge_cut_optima():
    k2 = Graph(2, [(0, 1)])
    devs = []
    for k in (2, 3):
        cut = -solve_sdp(gen_maxkcut(k2, k)).objective
        devs.append(abs(cut - 1.0))
    ok = max(devs) <= 1e-6
    _line(3, "single-edge MAXCUT/MkC optimum 1.0 (k=2,3)", ok,
          f"devs {devs[0]:.2e}, {devs[1]:.2e}")
    assert devs[0] <= 1e-6
    assert devs[1] <= 1e-6


# ---------------------------------------------------------------------------
# 4. star-graph contrast: dense plain coupling vs tree-structured dualized H
# ---------------------------------------------------------------------------


def test_criterion_04_star_contrast():
    n = 200
    problem = star_arrow_problem(n)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    assert td.ell == n
    ctc = build_ctc(problem, td)

    # plain conversion: all overlap rows pairwise coupled (dense block)
    pairs = plain_row_coupling(ctc)
    m_rows = ctc.a_rows.shape[0]
    n_over = ctc.n_rows.shape[0]
    assert n_over == n - 1
    dense_ok = all(
        (m_rows + a, m_rows + b) in pairs
        for a in range(n_over)
        for b in range(a + 1, n_over)
    )

    # dualized: exactly n-1 off-diagonal blocks, no fill in the factor
    rng = np.random.default_rng(4)
    sys_ = TreeNormalSystem(dualize(ctc))
    sigma, _q, psd_w, nn_w2 = random_scaling_data(rng, ctc)
    sys_.assemble_h(sigma, psd_w, nn_w2)
    sys_.factor()
    in_h, in_l = offdiag_block_counts(sys_)
    tree_ok = in_h == n - 1 and in_l == n - 1

    # per-iteration time separation: 8x the block count must cost < 10x;
    # the ratio is the median over three back-to-back pairs of solves, as
    # a shared host changes speed for spells (see criterion 06)
    big = star_arrow_problem(1600)
    ratios = []
    for _round in range(3):
        tpi_small = solve_sdp(problem, method="dctc").result.time_per_iter_s
        tpi_big = solve_sdp(big, method="dctc").result.time_per_iter_s
        ratios.append(tpi_big / tpi_small)
    ratio = float(np.median(ratios))
    time_ok = ratio < 10.0

    ok = dense_ok and tree_ok and time_ok
    _line(4, "star contrast (dense plain coupling, tree dualized H)", ok,
          f"offdiag {in_h}/{in_l}, time ratio {ratio:.2f}")
    assert dense_ok, "plain-CTC overlap coupling is not fully dense"
    assert tree_ok, f"dualized offdiag blocks {in_h}, factor {in_l}"
    assert time_ok, f"per-iteration time ratio {ratio:.2f} >= 10"


# ---------------------------------------------------------------------------
# 5. no block fill on random block trees
# ---------------------------------------------------------------------------


def random_block_tree(rng):
    """Random rooted tree of bags with orders <= 10 (valid decomposition)."""
    ell = int(rng.integers(2, 51))
    bags = []
    parent = np.zeros(ell, dtype=np.int64)
    first = int(rng.integers(1, 11))
    bags.append(tuple(range(first)))
    nxt = first
    for j in range(1, ell):
        p = int(rng.integers(0, j))
        parent[j] = p
        pb = bags[p]
        k = int(rng.integers(1, min(len(pb), 9) + 1))
        f = int(rng.integers(1, 11 - k))
        sep = tuple(
            int(v) for v in rng.choice(pb, size=k, replace=False)
        )
        fresh = tuple(range(nxt, nxt + f))
        nxt += f
        bags.append(tuple(sorted(sep + fresh)))
    return TreeDecomposition(n=nxt, bags=bags, parent=parent)


def random_tree_systems():
    """Normal engines of 100 programs on random block trees (seed 505),
    each with its scaling data (sigma, q, psd_w, nn_w2)."""
    rng = np.random.default_rng(505)
    for _ in range(100):
        td = random_block_tree(rng)
        n = td.n
        cost = SparseSymmetric(
            order=n,
            rows=list(range(n)),
            cols=list(range(n)),
            vals=[1.0] * n,
        )
        m = int(rng.integers(1, 5))
        constraints = [
            random_bag_supported_matrix(
                rng, n, td.bags[int(rng.integers(0, td.ell))]
            )
            for _ in range(m)
        ]
        problem = make_problem(cost, constraints, np.zeros(m))
        ctc = build_ctc(problem, td)
        sys_ = TreeNormalSystem(dualize(ctc))
        yield sys_, random_scaling_data(rng, ctc)


def test_criterion_05_no_block_fill_on_random_trees():
    checked = 0
    for sys_, (sigma, _q, psd_w, nn_w2) in random_tree_systems():
        sys_.assemble_h(sigma, psd_w, nn_w2)
        sys_.factor()
        in_h, in_l = offdiag_block_counts(sys_)
        assert in_h == in_l, (
            f"tree {checked}: H offdiag {in_h} != factor offdiag {in_l}"
        )
        checked += 1
    _line(5, "no block fill on 100 random trees", checked == 100,
          f"{checked} trees, exact count match")
    assert checked == 100


def test_structural_pattern_equals_measured_on_random_trees():
    # pattern_stats reads the block counts off G's rows; after a real
    # update the numbers in H and L show the same blocks and no fill
    for sys_, scaling in random_tree_systems():
        sys_.update(*scaling)
        stats, measured = sys_.pattern_stats(), measured_pattern(sys_)
        assert measured["fill_blocks"] == 0
        assert (
            stats["offdiag_blocks"]
            == stats["factor_offdiag_blocks"]
            == measured["offdiag_blocks"]
            == measured["factor_offdiag_blocks"]
        )


# ---------------------------------------------------------------------------
# 6. linear per-iteration time and memory scaling on the path family
# ---------------------------------------------------------------------------


def test_criterion_06_linear_per_iteration_scaling():
    sizes = (500, 1000, 2000, 4000)
    sdps = [gen_maxkcut(path_graph(n), 2) for n in sizes]
    # a shared host changes speed for spells of a fraction of a second
    # to several seconds; two sizes solved back to back mostly share a
    # spell, so each time ratio is the median over five rounds of the
    # ratio between neighbouring solves
    rounds = []
    mems = [0] * len(sizes)
    for _round in range(5):
        times = []
        for i, sdp in enumerate(sdps):
            outcome = solve_sdp(sdp, method="dctc")
            times.append(outcome.result.time_per_iter_s)
            mems[i] = outcome.pattern["bytes"]
        rounds.append([times[i + 1] / times[i] for i in range(3)])
    t_ratios = list(np.median(rounds, axis=0))
    m_ratios = [mems[i + 1] / mems[i] for i in range(3)]
    ok = all(1.5 <= r <= 2.7 for r in t_ratios + m_ratios)
    _line(6, "linear per-iteration scaling (path MAXCUT)", ok,
          "time " + ", ".join(f"{r:.2f}" for r in t_ratios)
          + "; mem " + ", ".join(f"{r:.2f}" for r in m_ratios))
    for r in t_ratios:
        assert 1.5 <= r <= 2.7, f"time ratio {r:.2f} outside [1.5, 2.7]"
    for r in m_ratios:
        assert 1.5 <= r <= 2.7, f"memory ratio {r:.2f} outside [1.5, 2.7]"


def test_sweep_steps_stay_constant_along_a_path():
    # criterion 06's question asked of a count instead of a clock: the
    # Python steps that each sweep of the factorization and of a solve
    # takes do not grow with the number of bags, since a path's groups
    # form one run with links, and its root group another
    seen = []
    for n in (200, 1600):
        sdp = gen_maxkcut(path_graph(n), 2)
        stats = _dualized_program(sdp).pattern_stats()
        assert stats["stacked_groups"] == stats["groups"] - 1
        seen.append((stats["groups"], stats["sweep_steps"]))
    (small, steps), (large, large_steps) = seen
    assert large > 7 * small
    assert steps == large_steps == 2


def test_metrics_memory_stays_linear_on_path_4000():
    # dense n x n slack, cost and X buffers would need several 128 MB
    # arrays here; the factor-based scores and the sparse inertia
    # bisection need O(n)
    n = 4000
    sdp = gen_maxkcut(path_graph(n), 2)
    factor = LowRankFactor(U=(-1.0) ** np.arange(n)[:, None])
    y = np.full(n, -0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        metrics = dimacs_metrics(sdp, factor, y)
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert metrics.pinf == 16.0  # the alternating cut has a unit diagonal
    assert peak_mb < 8.0, f"dimacs_metrics peak {peak_mb:.1f} MB >= 8 MB"


# ---------------------------------------------------------------------------
# 7. exact short-step contraction across instance families
# ---------------------------------------------------------------------------


def _dualized_program(sdp, with_aux=False):
    td = decompose(sparsity_graph(sdp.n, sdp.triplets))
    ctc = separate_with_aux(sdp, td) if with_aux else build_ctc(sdp, td)
    return DualizedHsdeProgram(dualize(ctc))


def _dense_program(sdp):
    return DenseHsdeProgram(
        sdp.stacked_rows().toarray(),
        sdp.b,
        sdp.cost_svec(),
        ConeSpec(0, [sdp.n], [0], [0]),
    )


def test_criterion_07_short_step_exact_contraction():
    instances = {
        "dense maxcut K2": _dense_program(gen_maxkcut(Graph(2, [(0, 1)]), 2)),
        "dualized maxcut path20": _dualized_program(
            gen_maxkcut(path_graph(20), 2)
        ),
        "dualized theta C5": _dualized_program(
            gen_lovasz_theta(cycle_graph(5))
        ),
        "dualized star arrow 20": _dualized_program(star_arrow_problem(20)),
        "dualized rayleigh aux 10": _dualized_program(
            path_rayleigh_problem(10), with_aux=True
        ),
    }
    worst = 0.0
    for name, program in instances.items():
        nu = HsdeSolver(
            program, SolverOptions(method="short", eps=0.5)
        ).nu
        contraction = 1.0 - 1.0 / (15.0 * np.sqrt(nu + 1.0))
        # the initial mu is exactly 1, so this eps yields >= 36 iterations
        result = short_step_solve(
            program, eps=contraction ** 36, max_iter=100
        )
        mus = [1.0] + [rec.mu for rec in result.records]
        assert len(mus) >= 31, f"{name}: only {len(mus) - 1} iterations"
        for prev, cur in zip(mus[:31], mus[1:32]):
            dev = abs(cur - contraction * prev)
            worst = max(worst, dev)
            assert dev <= 1e-12, (
                f"{name}: contraction deviation {dev:.3e} at mu={prev:.3e}"
            )
    _line(7, "short-step exact contraction (>=30 iters, 5 families)", True,
          f"worst |mu' - c*mu| = {worst:.1e}")


# ---------------------------------------------------------------------------
# 8. splitter optimality vs brute force, and linear splitter time
# ---------------------------------------------------------------------------


def test_criterion_08_splitting_optimality_and_linear_time():
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 13))
        _g, td, mat = random_instance(rng, n)
        if td.ell > 10:
            continue
        result = split(stack_triplets([mat]), td)
        cover = np.unique(result.assignment)
        assert cover.size == brute_force_min_cover(mat, td)
        checked += 1

    sizes = (300, 700, 1400, 3000)
    nnz_totals = []
    cases = []
    for n in sizes:
        td = decompose(path_graph(n))
        mats = [
            random_bag_supported_matrix(
                rng, n, td.bags[int(rng.integers(0, td.ell))]
            )
            for _ in range(n)
        ]
        nnz_totals.append(sum(m.nnz for m in mats))
        # one stack of all n matrices, split by one call, as build_ctc
        # splits a problem's matrices
        cases.append((stack_triplets(mats), td))
    # best of 5 per size, the sizes interleaved: the host's speed swings
    # for tens of milliseconds at a time, and a slow spell then costs every
    # size one repetition instead of one size all of them; the smallest
    # size takes 16-32 ms, so one slow spell over three repetitions could
    # still move the slope past the band
    elapsed = [np.inf] * len(sizes)
    for _rep in range(5):
        for k, (stack, td) in enumerate(cases):
            t0 = time.perf_counter()
            split(stack, td, build_unique_partition(td))
            elapsed[k] = min(elapsed[k], time.perf_counter() - t0)
    exponent = float(
        np.polyfit(np.log(nnz_totals), np.log(elapsed), 1)[0]
    )
    ok = 0.8 <= exponent <= 1.2
    _line(8, "splitter optimality (200 instances) + linear time", ok,
          f"fit exponent {exponent:.3f}")
    assert 0.8 <= exponent <= 1.2, f"fit exponent {exponent:.3f}"


# ---------------------------------------------------------------------------
# 9. auxiliary-variable equivalence and exact symbolic elimination
# ---------------------------------------------------------------------------


def _row_entry_dict(ctc, vec):
    """Map a row vector over the block layout to {(i, j): coefficient} in
    global matrix coordinates (svec scaling kept as stored)."""
    out = {}
    for bag, lo in zip(ctc.td.bags, ctc.svec_start.tolist()):
        t = 0
        for a in range(len(bag)):
            for b_ in range(a + 1):
                v = float(vec[lo + t])
                if v != 0.0:
                    key = (max(bag[a], bag[b_]), min(bag[a], bag[b_]))
                    out[key] = out.get(key, 0.0) + v
                t += 1
    return out


def test_criterion_09_aux_equivalence_and_elimination():
    worst = 0.0
    for n_plus_1 in (10, 50):
        sdp = path_rayleigh_problem(n_plus_1)
        obj_oracle = oracle_objective(sdp)
        obj_aux = solve_sdp(sdp, method="dctc-aux").objective
        rel = abs(obj_aux - obj_oracle) / (1.0 + abs(obj_oracle))
        worst = max(worst, rel)
        assert rel <= 1e-5, f"n+1={n_plus_1}: rel dev {rel:.3e}"

        # symbolic elimination: summing each chain's rows cancels the
        # auxiliaries exactly and reproduces the unsplit converted row
        td = decompose(sparsity_graph(sdp.n, sdp.triplets))
        plain = build_ctc(sdp, td)
        aux = separate_with_aux(sdp, td)
        want, record = row_assemble(sdp, td, True)
        assert (aux.a_rows != want.a_rows).nnz == 0 and record.aux_chains
        g_aux = aux.g_matrix().toarray()
        g_plain = plain.g_matrix().toarray()
        for chain in record.aux_chains:
            lo, hi = chain.row_range
            summed = g_aux[lo:hi].sum(axis=0)
            for coord in chain.aux_coord.values():
                assert summed[coord] == 0.0, "aux coordinate did not cancel"
            plain_row = g_plain[plain.dual_row_of_constraint[chain.index]]
            assert _row_entry_dict(aux, summed) == _row_entry_dict(
                plain, plain_row
            ), f"eliminated row differs for constraint {chain.index}"
    _line(9, "aux-variable equivalence + exact elimination", True,
          f"worst rel dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 10. completion contract on random chordal patterns
# ---------------------------------------------------------------------------


def test_criterion_10_completion_contract():
    rng = np.random.default_rng(1010)
    worst_eig = 0.0
    worst_bag = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        td = decompose(random_connected_graph(rng, n))
        g = rng.standard_normal((n, n))
        x = g @ g.T + 0.3 * np.eye(n)
        blocks = [
            x[np.ix_(np.asarray(bag), np.asarray(bag))] for bag in td.bags
        ]
        factor = complete_low_rank(blocks, td)
        assert factor.rank <= td.omega, (
            f"rank {factor.rank} > omega {td.omega}"
        )
        m_full = factor.matrix()
        lam_min = float(np.linalg.eigvalsh(m_full)[0])
        worst_eig = min(worst_eig, lam_min)
        assert lam_min >= -1e-8
        for bag, blk in zip(td.bags, blocks):
            idx = np.asarray(bag)
            dev = float(
                np.max(np.abs(m_full[np.ix_(idx, idx)] - blk))
            )
            worst_bag = max(worst_bag, dev)
            assert dev <= 1e-6
    _line(10, "completion contract (100 chordal patterns)", True,
          f"min eig {worst_eig:.1e}, worst bag dev {worst_bag:.1e}")


# ---------------------------------------------------------------------------
# 11. DIMACS accuracy at scale in bounded adaptive iterations
# ---------------------------------------------------------------------------


def test_criterion_11_dimacs_accuracy_at_scale():
    rng = np.random.default_rng(1111)
    instances = {
        "maxcut path 2000": gen_maxkcut(path_graph(2000), 2),
        "maxcut random tree 500": gen_maxkcut(
            random_connected_graph(rng, 500), 2
        ),
        "theta C100": gen_lovasz_theta(cycle_graph(100)),
        "theta path 150": gen_lovasz_theta(path_graph(150)),
    }
    results = {}
    for name, sdp in instances.items():
        outcome = solve_sdp(sdp, method="dctc")
        results[name] = (outcome.metrics.L, outcome.iterations)
    ok = all(L >= 5.0 and it <= 100 for L, it in results.values())
    detail = "; ".join(
        f"{name}: L={L:.1f} in {it} iters"
        for name, (L, it) in results.items()
    )
    _line(11, "DIMACS accuracy at scale (<=100 adaptive iters)", ok, detail)
    for name, (L, it) in results.items():
        assert L >= 5.0, f"{name}: L = {L:.2f} < 5"
        assert it <= 100, f"{name}: {it} iterations > 100"
