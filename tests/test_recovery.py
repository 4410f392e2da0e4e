"""Tests for low-rank completion and solution-quality metrics."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesdp.chordal import Graph, TreeDecomposition, decompose
from treesdp.errors import (
    BlockNotPsd,
    DimensionMismatch,
    NotFinite,
    OverlapMismatch,
)
from treesdp.frontends import gen_maxcut
from treesdp.recovery import (
    LowRankFactor,
    Metrics,
    _Shifted,
    _spectral_norm,
    complete_low_rank,
    dimacs_metrics,
)
from util import (
    SparseSymmetric,
    dense_dimacs_metrics,
    make_problem,
    random_connected_graph,
    random_partially_separable_problem,
    to_dense,
)


def path_td(n):
    """Bags {i, i+1} chained along a path, rooted at bag 0."""
    bags = [(i, i + 1) for i in range(n - 1)]
    parent = [0] + list(range(n - 2))
    return TreeDecomposition(n=n, bags=bags, parent=np.array(parent))


def single_td(n):
    return TreeDecomposition(n=n, bags=[tuple(range(n))], parent=np.array([0]))


def project_to_bags(x, td):
    return [x[np.ix_(bag, bag)].copy() for bag in td.bags]


def bag_agreement_error(factor, blocks, td):
    full = factor.U @ factor.U.T
    worst = 0.0
    for j, bag in enumerate(td.bags):
        idx = np.asarray(bag)
        diff = np.linalg.norm(full[np.ix_(idx, idx)] - blocks[j])
        worst = max(worst, diff / (1.0 + np.linalg.norm(blocks[j])))
    return worst


def numerical_rank(u, tol=1e-8):
    if u.size == 0:
        return 0
    s = np.linalg.svd(u, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def test_single_bag_reproduces_block():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4))
    x = g @ g.T + 0.5 * np.eye(4)
    factor = complete_low_rank([x], single_td(4))
    assert factor.U.shape[0] == 4
    assert factor.rank <= 4
    assert np.linalg.norm(factor.U @ factor.U.T - x) <= 1e-8 * (
        1 + np.linalg.norm(x)
    )


def test_all_ones_path_completes_to_rank_one():
    # the all-ones 2x2 blocks prescribe unit diagonal and unit correlation
    # along the path; the unique PSD matrix with those bag values is the
    # all-ones matrix (any PSD matrix with X[i,i]=X[j,j]=X[i,j]=1 forces
    # equality of columns i and j), so the completion is rank one.
    td = path_td(3)
    ones = np.ones((2, 2))
    factor = complete_low_rank([ones.copy(), ones.copy()], td)
    assert np.allclose(factor.U @ factor.U.T, np.ones((3, 3)), atol=1e-10)
    assert numerical_rank(factor.U) == 1
    assert factor.rank <= td.omega


def test_identity_blocks_reuse_columns_for_minimal_width():
    # bags {0,1} and {1,2} with identity blocks: a fresh column for vertex 2
    # would give rank 3 > omega; reusing the column freed by vertex 0
    # (orthogonal to the separator's rows) keeps the factor at omega = 2.
    td = path_td(3)
    eye = np.eye(2)
    factor = complete_low_rank([eye.copy(), eye.copy()], td)
    assert factor.rank <= 2
    full = factor.U @ factor.U.T
    assert np.allclose(np.diag(full), 1.0, atol=1e-10)
    assert abs(full[0, 1]) <= 1e-10
    assert abs(full[1, 2]) <= 1e-10
    assert np.all(np.linalg.eigvalsh(full) >= -1e-10)


def test_overlap_mismatch_raises():
    td = path_td(3)
    x1 = np.eye(2)
    x2 = np.eye(2)
    x2[0, 0] = 2.0  # vertex 1 is shared and disagrees
    with pytest.raises(OverlapMismatch):
        complete_low_rank([x1, x2], td)


def test_non_psd_block_raises():
    td = path_td(3)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(BlockNotPsd):
        complete_low_rank([np.eye(2), bad], td)


@pytest.mark.parametrize(
    "pivot, coupling, last",
    [
        # Schur complement 10 - 1.2e-8 - (1e-4)^2 / 1e-9 = -1.2e-8
        (1e-9, 1e-4, 10.0 - 1.2e-8),
        # PSD to rounding; its Schur complement rounds to -1.2e-7 against
        # the block's 1e9
        (3e-8, 5.477225575051661, 1e9),
    ],
)
def test_rounding_beside_a_large_entry_is_within_the_cap(
    pivot, coupling, last
):
    # a child block accurate to eps = 1e-8 relative to its largest entry
    # completes; only an eigenvalue beyond 100 eps (1 + lambda_max) raises
    td = path_td(3)
    root = np.array([[1.0, 0.0], [0.0, pivot]])
    child = np.array([[pivot, coupling], [coupling, last]])
    factor = complete_low_rank([root, child], td, eps=1e-8)
    assert factor.rank <= 2
    assert bag_agreement_error(factor, [root, child], td) <= 1e-8


def test_block_count_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        complete_low_rank([np.eye(2)], path_td(3))


def test_roundtrip_random_chordal_patterns():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(3, 21))
        td = decompose(random_connected_graph(rng, n))
        g = rng.standard_normal((n, n))
        x = g @ g.T + 0.3 * np.eye(n)
        blocks = project_to_bags(x, td)
        factor = complete_low_rank(blocks, td)
        assert factor.rank <= td.omega
        assert bag_agreement_error(factor, blocks, td) <= 1e-6
        full = factor.U @ factor.U.T
        assert np.linalg.eigvalsh(full).min() >= -1e-8


def test_rank_deficient_blocks_complete_exactly():
    # project a rank-2 PSD matrix whose rows span ``decades`` orders of
    # magnitude; the completion must stay PSD with the same bag values even
    # though every pseudo-inverse is singular.  Graded rows make separator
    # blocks tiny beside their bags, which a Schur-complement extension
    # amplifies (seed 835 lost 4.5e-3 of its bag scale that way).
    for seed, n, decades in ((11, 8, 0), (835, 12, 3)):
        rng = np.random.default_rng(seed)
        td = decompose(random_connected_graph(rng, n))
        rows = 10.0 ** rng.integers(0, decades + 1, n)
        g = rows[:, None] * rng.standard_normal((n, 2))
        x = g @ g.T
        blocks = project_to_bags(x, td)
        factor = complete_low_rank(blocks, td)
        assert bag_agreement_error(factor, blocks, td) <= 1e-6
        for bag, block in zip(td.bags, blocks):
            u_j = factor.U[np.asarray(bag)]
            assert np.max(np.abs(u_j @ u_j.T - block)) <= 1e-9 * (
                1.0 + np.max(np.abs(block))
            )
        assert np.linalg.eigvalsh(factor.U @ factor.U.T).min() >= -1e-8
        assert factor.rank <= td.omega


def test_long_path_completion_is_linear_size():
    n = 1500
    td = path_td(n)
    blocks = [np.array([[2.0, 1.0], [1.0, 2.0]]) for _ in range(n - 1)]
    factor = complete_low_rank(blocks, td)
    assert factor.rank <= 2
    # spot-check a few bags rather than forming the n x n product
    for j in (0, n // 2, n - 2):
        bag = np.asarray(td.bags[j])
        sub = factor.U[bag] @ factor.U[bag].T
        assert np.allclose(sub, blocks[j], atol=1e-8)


def test_solution_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    u = rng.standard_normal((5, 2))
    factor = LowRankFactor(U=u)
    path = tmp_path / "solution.txt"
    factor.write(path)
    lines = path.read_text().strip().splitlines()
    n, r = map(int, lines[0].split())
    assert (n, r) == (5, 2)
    back = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    assert np.allclose(back, u, atol=1e-12)

    buf = io.StringIO()
    factor.write(buf)
    assert buf.getvalue() == path.read_text()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def one_by_one_toy():
    # min x subject to x = 1: optimum X = [[1]], dual y = 1, slack S = 0
    cost = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    a1 = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    return make_problem(cost, [a1], np.array([1.0]))


def test_metrics_exact_optimum_saturates():
    sdp = one_by_one_toy()
    m = dimacs_metrics(sdp, LowRankFactor(U=[[1.0]]), np.array([1.0]))
    assert m.pinf >= 12
    assert m.dinf >= 12
    assert m.gap >= 12
    assert m.L == min(m.pinf, m.dinf, m.gap)


def test_metrics_formula_inversion():
    # primal residual 1e-3 * (1 + ||b||) gives pinf exactly 3
    sdp = one_by_one_toy()
    resid = 1e-3 * (1.0 + 1.0)
    factor = LowRankFactor(U=[[np.sqrt(1.0 + resid)]])
    m = dimacs_metrics(sdp, factor, np.array([1.0]))
    assert m.pinf == pytest.approx(3.0, abs=1e-9)


def test_metrics_dual_and_gap_scores():
    # dual slack violation: y = 2 makes A^T(y) - C = [[1]], ||C|| = 1,
    # so dinf = -log10(1/2) to the bisection's 1e-4 digits; the gap
    # scores |1 - 2| / (1 + 1 + 2)
    sdp = one_by_one_toy()
    one = LowRankFactor(U=[[1.0]])
    m = dimacs_metrics(sdp, one, np.array([2.0]))
    assert m.dinf == pytest.approx(-np.log10(0.5), abs=1e-4)
    assert m.gap == pytest.approx(-np.log10(0.25), abs=1e-12)

    # positive gap numerator: y = 0 gives gap -log10(1 / (1 + 1 + 0))
    m2 = dimacs_metrics(sdp, one, np.array([0.0]))
    assert m2.gap == pytest.approx(-np.log10(0.5), abs=1e-12)


def test_metrics_accept_low_rank_factor():
    # two columns whose outer product is [[1]]
    sdp = one_by_one_toy()
    factor = LowRankFactor(U=np.array([[0.6, 0.8]]))
    m = dimacs_metrics(sdp, factor, np.array([1.0]))
    assert m.L >= 12


def test_metrics_one_sided_inequality_residuals():
    # a satisfied >= row must not count as primal infeasibility
    cost = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    a1 = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    sdp = make_problem(cost, [a1], np.array([1.0]), ["ge"])
    m = dimacs_metrics(sdp, LowRankFactor(U=[[np.sqrt(2.0)]]), np.array([0.0]))
    assert m.pinf == 16.0
    # a violated >= row counts with its violation magnitude
    m2 = dimacs_metrics(
        sdp, LowRankFactor(U=[[np.sqrt(0.5)]]), np.array([0.0])
    )
    assert m2.pinf == pytest.approx(-np.log10(0.5 / 2.0), abs=1e-12)


def test_metrics_reject_non_finite_and_misshapen_input():
    sdp = one_by_one_toy()
    with pytest.raises(NotFinite):
        dimacs_metrics(sdp, LowRankFactor(U=[[1.0]]), np.array([np.nan]))
    with pytest.raises(DimensionMismatch):
        dimacs_metrics(sdp, LowRankFactor(U=np.ones((2, 1))), np.ones(1))
    with pytest.raises(DimensionMismatch):
        dimacs_metrics(sdp, LowRankFactor(U=[[1.0]]), np.ones(2))


def assert_scores_match_oracle(sdp, factor, y, tol=1e-3):
    got = dimacs_metrics(sdp, factor, y)
    want = dense_dimacs_metrics(sdp, factor, y)
    for key in ("pinf", "dinf", "gap", "L"):
        assert getattr(got, key) == pytest.approx(
            getattr(want, key), abs=tol
        ), key
    return got


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    m=st.integers(1, 12),
    ineq_prob=st.sampled_from([0.0, 0.5, 1.0]),
    rank=st.integers(1, 3),
    y_digits=st.floats(-3.0, 3.0),
)
def test_metrics_match_the_dense_oracle(seed, n, m, ineq_prob, rank, y_digits):
    # random chordal instances with mixed senses, a random factor and a
    # dual vector scaled by 10^y_digits
    rng = np.random.default_rng(seed)
    sdp, _td = random_partially_separable_problem(rng, n, m, ineq_prob)
    factor = LowRankFactor(U=rng.standard_normal((n, rank)))
    y = rng.standard_normal(m) * 10.0**y_digits
    assert_scores_match_oracle(sdp, factor, y)


def path_maxcut_at(n, y):
    """Path MAXCUT (C = -L/4, a singular C), the alternating cut as the
    factor and the dual vector y."""
    sdp = gen_maxcut(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    factor = LowRankFactor(U=(-1.0) ** np.arange(n)[:, None])
    return sdp, factor, np.broadcast_to(y, (n,)).astype(float)


def test_metrics_match_the_oracle_with_a_singular_cost():
    # C = -L/4 has the eigenvalue 0; ||C|| comes from the side -C alone
    sdp, factor, y = path_maxcut_at(40, 0.3)
    assert_scores_match_oracle(sdp, factor, y)


def test_metrics_dinf_saturates_when_the_slack_is_negative():
    # y = -1 puts lambda_max(diag(y) + L/4) below 0
    sdp, factor, y = path_maxcut_at(40, -1.0)
    m = assert_scores_match_oracle(sdp, factor, y)
    assert m.dinf == 16.0


def test_metrics_dinf_saturates_at_a_zero_top_eigenvalue():
    # y = 0 with C = L/4 makes the slack -L/4, whose top eigenvalue is
    # exactly 0: a nonpositive numerator, 16 digits
    sdp, factor, y = path_maxcut_at(40, 0.0)
    flipped = make_problem(
        SparseSymmetric(
            order=sdp.n,
            rows=sdp.cost.rows,
            cols=sdp.cost.cols,
            vals=-sdp.cost.vals,
        ),
        sdp.constraints,
        sdp.b,
    )
    assert dimacs_metrics(flipped, factor, y).dinf == 16.0


def test_metrics_match_the_oracle_with_zero_cost():
    rng = np.random.default_rng(7)
    base, _td = random_partially_separable_problem(rng, 12, 6, 0.5)
    zero = SparseSymmetric(order=base.n, rows=[], cols=[], vals=[])
    sdp = make_problem(zero, base.constraints, base.b, base.senses)
    factor = LowRankFactor(U=rng.standard_normal((base.n, 2)))
    assert_scores_match_oracle(sdp, factor, rng.standard_normal(base.m))


def tridiagonal(n, diag, off):
    rows = np.r_[np.arange(n), np.arange(1, n)]
    cols = np.r_[np.arange(n), np.arange(n - 1)]
    return SparseSymmetric(order=n, rows=rows, cols=cols, vals=np.r_[diag, off])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_metrics_match_the_oracle_with_an_indefinite_cost(sign):
    # a tridiagonal C with diagonal +6, -5, +6, ... has a large eigenvalue
    # of each sign, the larger one of the given sign; both Gershgorin
    # bounds exceed max_i ||C e_i||_2, so ||C|| is bisected through the
    # factors of C and of -C together
    rng = np.random.default_rng(11)
    base, _td = random_partially_separable_problem(rng, 12, 6, 0.5)
    n = base.n
    diag = sign * np.where(np.arange(n) % 2 == 0, 6.0, -5.0)
    cost = tridiagonal(n, diag, rng.uniform(2.0, 3.0, n - 1))
    dense = to_dense(cost, n)
    col_norm = np.max(np.linalg.norm(dense, axis=0))
    for vals in (cost.vals, -cost.vals):
        assert _Shifted(n, cost.rows, cost.cols, vals).upper > col_norm
    eig = np.linalg.eigvalsh(dense)
    assert eig[0] < -4.0 and eig[-1] > 4.0
    assert _spectral_norm(n, cost) == pytest.approx(
        np.linalg.norm(dense, 2), rel=1e-3
    )
    sdp = make_problem(cost, base.constraints, base.b, base.senses)
    factor = LowRankFactor(U=rng.standard_normal((n, 2)))
    assert_scores_match_oracle(sdp, factor, rng.standard_normal(base.m))


def test_metrics_gap_stays_saturated_at_a_zero_numerator():
    # C.X = b'y exactly, and C.X - b'y = 0 is nonpositive: 16 digits
    sdp = one_by_one_toy()
    m = dimacs_metrics(sdp, LowRankFactor(U=[[2.0]]), np.array([4.0]))
    assert m.gap == 16.0
    assert m.gap == dense_dimacs_metrics(sdp, [[4.0]], [4.0]).gap


def test_shifted_inertia_survives_a_shift_on_an_eigenvalue():
    # 0 is an eigenvalue of the path Laplacian L, so the unshifted LDL^T
    # meets an exactly zero pivot; the nudged shift still answers
    n = 30
    rows = np.r_[np.arange(n), np.arange(1, n)]
    cols = np.r_[np.arange(n), np.arange(n - 1)]
    deg = np.r_[1.0, np.full(n - 2, 2.0), 1.0]
    vals = np.r_[deg, -np.ones(n - 1)]
    assert _Shifted(n, rows, cols, vals).exceeds(0.0)
    assert not _Shifted(n, rows, cols, -vals).exceeds(0.0)


def test_metrics_json_shape():
    sdp = one_by_one_toy()
    m = dimacs_metrics(
        sdp,
        LowRankFactor(U=[[1.0]]),
        np.array([1.0]),
        iterations=9,
        time_per_iter_s=0.012,
    )
    payload = json.loads(m.to_json())
    assert set(payload) == {
        "pinf",
        "dinf",
        "gap",
        "L",
        "iters",
        "time_per_iter_s",
    }
    assert payload["iters"] == 9
    assert payload["time_per_iter_s"] == pytest.approx(0.012)
    assert payload["L"] == min(payload["pinf"], payload["dinf"], payload["gap"])
