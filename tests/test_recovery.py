"""Tests for low-rank completion and solution-quality metrics."""

import io
import json

import numpy as np
import pytest

from treesdp.chordal import TreeDecomposition, decompose
from treesdp.errors import BlockNotPsd, DimensionMismatch, OverlapMismatch
from treesdp.linalg import SparseSymmetric
from treesdp.model import SdpProblem
from treesdp.recovery import (
    LowRankFactor,
    Metrics,
    complete_low_rank,
    dimacs_metrics,
)
from util import random_connected_graph


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
    return SdpProblem(cost=cost, constraints=[a1], b=np.array([1.0]))


def test_metrics_exact_optimum_saturates():
    sdp = one_by_one_toy()
    m = dimacs_metrics(sdp, np.array([[1.0]]), np.array([1.0]))
    assert m.pinf >= 12
    assert m.dinf >= 12
    assert m.gap >= 12
    assert m.L == min(m.pinf, m.dinf, m.gap)


def test_metrics_formula_inversion():
    # primal residual 1e-3 * (1 + ||b||) gives pinf exactly 3
    sdp = one_by_one_toy()
    resid = 1e-3 * (1.0 + 1.0)
    m = dimacs_metrics(sdp, np.array([[1.0 + resid]]), np.array([1.0]))
    assert m.pinf == pytest.approx(3.0, abs=1e-9)


def test_metrics_dual_and_gap_scores():
    # dual slack violation: y = 2 makes A^T(y) - C = [[1]], ||C|| = 1,
    # so dinf = -log10(1/2); the gap scores |1 - 2| / (1 + 1 + 2)
    sdp = one_by_one_toy()
    m = dimacs_metrics(sdp, np.array([[1.0]]), np.array([2.0]))
    assert m.dinf == pytest.approx(-np.log10(0.5), abs=1e-12)
    assert m.gap == pytest.approx(-np.log10(0.25), abs=1e-12)

    # positive gap numerator: y = 0 gives gap -log10(1 / (1 + 1 + 0))
    m2 = dimacs_metrics(sdp, np.array([[1.0]]), np.array([0.0]))
    assert m2.gap == pytest.approx(-np.log10(0.5), abs=1e-12)


def test_metrics_accept_low_rank_factor():
    sdp = one_by_one_toy()
    factor = LowRankFactor(U=np.array([[1.0]]))
    m = dimacs_metrics(sdp, factor, np.array([1.0]))
    assert m.L >= 12


def test_metrics_one_sided_inequality_residuals():
    # a satisfied >= row must not count as primal infeasibility
    cost = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    a1 = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    sdp = SdpProblem(
        cost=cost, constraints=[a1], b=np.array([1.0]), senses=["ge"]
    )
    m = dimacs_metrics(sdp, np.array([[2.0]]), np.array([0.0]))
    assert m.pinf == 16.0
    # a violated >= row counts with its violation magnitude
    m2 = dimacs_metrics(sdp, np.array([[0.5]]), np.array([0.0]))
    assert m2.pinf == pytest.approx(-np.log10(0.5 / 2.0), abs=1e-12)


def test_metrics_json_shape():
    sdp = one_by_one_toy()
    m = dimacs_metrics(
        sdp,
        np.array([[1.0]]),
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
