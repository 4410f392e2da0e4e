"""Tests for low-rank completion and solution-quality metrics."""

import collections
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesdp.chordal import (
    Graph, TreeDecomposition, decompose, format_decomposition
)
from treesdp.errors import (
    BlockNotPsd,
    DimensionMismatch,
    NotFinite,
    OverlapMismatch,
)
from treesdp import recovery
from treesdp.frontends import gen_maxcut, solve_sdp
from treesdp.recovery import (
    INERTIA_DIGITS,
    LowRankFactor,
    _Shifted,
    _spectral_norm,
    complete_low_rank,
    dimacs_metrics,
)
from util import (
    SparseSymmetric,
    dense_dimacs_metrics,
    loop_complete_low_rank,
    make_problem,
    random_connected_graph,
    random_partially_separable_problem,
    separator,
    star_arrow_problem,
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


def test_block_not_psd_names_the_bag_as_the_decomposition_dump():
    # the message's bag number starts the dump line of the failing bag
    td = decompose(random_connected_graph(np.random.default_rng(3), 12))
    lines = format_decomposition(td).splitlines()
    for j, bag in enumerate(td.bags):
        blocks = [np.eye(len(b)) for b in td.bags]
        blocks[j] = -blocks[j]
        with pytest.raises(BlockNotPsd) as err:
            complete_low_rank(blocks, td)
        number = named_bags(err.value)[0]
        head, members = lines[int(number) - 1].split(" : ")
        assert head.split()[0] == number
        assert members.split() == [str(v + 1) for v in bag]


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


def fstring_factor_text(u):
    """The factor file as one f-string per value wrote it."""
    lines = [f"{u.shape[0]} {u.shape[1]}\n"]
    for row in u:
        lines.append(" ".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize(
    "u",
    [
        np.array([[-0.0, 1e-300], [1e300, -1e-300], [np.pi, -2.5]]),
        np.array([[-0.0], [1e-300], [1e300], [1.0 / 3.0]]),
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        np.random.default_rng(5).standard_normal((7, 4)) * 1e5,
    ],
    ids=["signs-and-extremes", "one-column", "zero-rows", "zero-columns",
         "random"],
)
def test_factor_text_is_byte_identical_to_the_f_string_writer(u):
    buf = io.StringIO()
    LowRankFactor(U=u).write(buf)
    assert buf.getvalue() == fstring_factor_text(u)


# ---------------------------------------------------------------------------
# the stacked completion against the bag-by-bag oracle
# ---------------------------------------------------------------------------


def factor_blocks(g, td, shift=0.0):
    """Bag blocks of the PSD matrix g g^T + shift I, bag by bag."""
    return [
        g[np.asarray(bag)] @ g[np.asarray(bag)].T + shift * np.eye(len(bag))
        for bag in td.bags
    ]


def worst_bag_agreement(factor, blocks, td):
    """max over bags J of max |U_J U_J^T - X_J| / (1 + max |X_J|), without
    an n x n product."""
    worst = 0.0
    for bag, block in zip(td.bags, blocks):
        u_j = factor.U[np.asarray(bag, dtype=np.int64)]
        dev = np.max(np.abs(u_j @ u_j.T - block), initial=0.0)
        scale = 1.0 + np.max(np.abs(block), initial=0.0)
        worst = max(worst, float(dev / scale))
    return worst


def assert_matches_loop(blocks, td, eps=1e-8):
    ref = loop_complete_low_rank(blocks, td, eps)
    got = complete_low_rank(blocks, td, eps)
    assert got.U.shape == ref.U.shape
    assert abs(
        worst_bag_agreement(got, blocks, td)
        - worst_bag_agreement(ref, blocks, td)
    ) <= 1e-12
    return got


def grid_graph(rows, cols):
    def v(i, j):
        return i * cols + j

    edges = [(v(i, j), v(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(v(i, j), v(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, edges)


def test_stacked_completion_matches_loop_on_random_chordal_patterns():
    rng = np.random.default_rng(1301)
    for _ in range(40):
        n = int(rng.integers(3, 26))
        td = decompose(random_connected_graph(rng, n, rng.uniform(0.5, 4.0)))
        k = int(rng.choice([1, 2, 3, n]))
        g = rng.standard_normal((n, k))
        assert_matches_loop(factor_blocks(g, td, shift=0.3), td)
        assert_matches_loop(factor_blocks(g, td), td)


def test_stacked_completion_matches_loop_on_rank_deficient_blocks():
    # graded rows make separator blocks tiny beside their bags; zero rows
    # give bags of rank below their neighbours' and all-zero bags
    for seed, n, decades in ((11, 8, 0), (835, 12, 3), (97, 30, 2)):
        rng = np.random.default_rng(seed)
        td = decompose(random_connected_graph(rng, n))
        rows = 10.0 ** rng.integers(0, decades + 1, n)
        g = rows[:, None] * rng.standard_normal((n, 2))
        assert_matches_loop(factor_blocks(g, td), td)
        g[rng.random(n) < 0.4] = 0.0
        assert_matches_loop(factor_blocks(g, td), td)
    td = decompose(random_connected_graph(np.random.default_rng(3), 9))
    zero = assert_matches_loop(factor_blocks(np.zeros((9, 1)), td), td)
    assert zero.U.shape == (9, 0)


def test_stacked_completion_matches_loop_on_empty_separators():
    # three components: their roots hang under the last one's root with
    # nothing shared, and a hand-built tree puts one under a middle bag
    rng = np.random.default_rng(21)
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (6, 7), (7, 8), (8, 6)]
    td = decompose(Graph(9, edges))
    assert any(
        not separator(td, j) for j in range(td.ell) if td.parent[j] != j
    )
    for k in (1, 2, 3):
        assert_matches_loop(factor_blocks(rng.standard_normal((9, k)), td), td)
    td = TreeDecomposition(
        n=7, bags=[(0, 1), (1, 2, 3), (4, 5), (5, 6)],
        parent=np.array([0, 0, 1, 2]),
    )
    assert_matches_loop(factor_blocks(rng.standard_normal((7, 2)), td), td)


def test_stacked_completion_matches_loop_on_a_long_path():
    n = 1201  # 1200 bags, 1199 deep
    rng = np.random.default_rng(4)
    td = path_td(n)
    for k, shift in ((1, 0.0), (2, 0.0), (3, 0.0), (2, 0.5)):
        got = assert_matches_loop(
            factor_blocks(rng.standard_normal((n, k)), td, shift), td
        )
        assert got.rank <= 2


def test_stacked_completion_matches_loop_on_a_grid():
    # the 6 x L grid at omega = 9 is a chain of 599 bags, 114 deep, and
    # keeps a vertex in up to 14 of them
    td = decompose(grid_graph(6, 120))
    assert td.omega == 9 and max(td.depth) >= 100
    rng = np.random.default_rng(6)
    for k, shift in ((2, 0.0), (5, 0.0), (3, 0.2)):
        assert_matches_loop(
            factor_blocks(rng.standard_normal((td.n, k)), td, shift), td
        )


def test_stacked_completion_matches_loop_past_bags_that_place_nothing():
    # bags 1 and 5 lie inside their parents and place no vertex; their
    # children are rotated against the nearest bag above that does.  Bag
    # 1 also carries 1e-9 of its own, so its rank can exceed every placing
    # bag's.
    td = TreeDecomposition(
        n=7,
        bags=[(0, 1, 2), (1, 2), (2, 3), (1, 4), (1, 2, 6), (2,), (2, 5)],
        parent=np.array([0, 0, 1, 1, 1, 1, 5]),
    )
    rng = np.random.default_rng(12)
    for k in (1, 2, 3):
        blocks = factor_blocks(rng.standard_normal((7, k)), td)
        assert_matches_loop(blocks, td)
        blocks[1] = blocks[1] + 1e-9 * np.eye(2)
        assert assert_matches_loop(blocks, td).rank == k


def named_bags(err):
    """The bag (and parent) an error message names."""
    return re.match(r"bags? (\d+)(?: and (\d+))?", str(err)).groups()


def test_stacked_completion_names_the_loops_first_failure():
    # corrupt a few bags: a PSD failure, a separator that disagrees with
    # the parent, or both in one bag (its PSD check comes first); the
    # error is the first in root-first order, as the loop meets it
    rng = np.random.default_rng(77)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(4, 20))
        td = decompose(random_connected_graph(rng, n, 2.0))
        blocks = factor_blocks(rng.standard_normal((n, n)), td, shift=0.3)
        count = min(td.ell, int(rng.integers(1, 4)))
        for j in rng.choice(td.ell, count, replace=False):
            shared = separator(td, j)
            kind = rng.integers(0, 3) if shared else 0
            if kind != 1:
                blocks[j] = blocks[j] - 2.0 * np.max(
                    np.linalg.eigvalsh(blocks[j])
                ) * np.eye(len(td.bags[j]))
            if kind != 0:
                i = td.bags[j].index(shared[rng.integers(0, len(shared))])
                blocks[j][i, i] += 1e-3
        with pytest.raises((BlockNotPsd, OverlapMismatch)) as ref:
            loop_complete_low_rank(blocks, td)
        with pytest.raises(type(ref.value)) as got:
            complete_low_rank(blocks, td)
        assert named_bags(got.value) == named_bags(ref.value)
        seen.add(type(ref.value))
    assert seen == {BlockNotPsd, OverlapMismatch}


def test_stacked_completion_names_a_misshapen_block_as_the_loop():
    td = path_td(4)
    blocks = [np.eye(2), np.eye(3), np.eye(2)]
    with pytest.raises(DimensionMismatch) as ref:
        loop_complete_low_rank(blocks, td)
    with pytest.raises(DimensionMismatch) as got:
        complete_low_rank(blocks, td)
    assert str(got.value) == str(ref.value)


def test_completion_decompositions_do_not_grow_with_the_bag_count(
    monkeypatch,
):
    # one stacked eigh per bag order and one stacked SVD, whatever ell
    calls = collections.Counter()
    for name in ("eigh", "svd"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(8)
    counts = []
    for n in (101, 1001):  # 100 and 1000 bags
        calls.clear()
        td = path_td(n)
        complete_low_rank(factor_blocks(rng.standard_normal((n, 2)), td), td)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == {"eigh": 1, "svd": 1}


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


def path_laplacian(n):
    """Lower triplets of the Laplacian of the path on n vertices."""
    rows = np.r_[np.arange(n), np.arange(1, n)]
    cols = np.r_[np.arange(n), np.arange(n - 1)]
    deg = np.r_[1.0, np.full(n - 2, 2.0), 1.0]
    return rows, cols, np.r_[deg, -np.ones(n - 1)]


def test_shifted_inertia_survives_a_shift_on_an_eigenvalue(monkeypatch):
    # 0 is an eigenvalue of the path Laplacian L, so the unshifted LDL^T
    # meets an exactly zero pivot; the nudged shift still answers.  The
    # band is narrow, so SuperLU is forced here
    monkeypatch.setattr(recovery, "BAND_FILL", 0.0)
    n = 30
    rows, cols, vals = path_laplacian(n)
    assert _Shifted(n, rows, cols, vals).band is None
    assert _Shifted(n, rows, cols, vals).exceeds(0.0)
    assert not _Shifted(n, rows, cols, -vals).exceeds(0.0)


def spy_on(monkeypatch, name):
    """Wrap ``recovery.<name>``; returns the list of (args, result) of its
    calls, the array arguments as they stand after each call."""
    calls = []
    real = getattr(recovery, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(([np.copy(a) if isinstance(a, np.ndarray) else a
                       for a in args], out))
        return out

    monkeypatch.setattr(recovery, name, spy)
    return calls


def test_band_inertia_survives_a_zero_last_pivot(monkeypatch):
    # the band twin of the test above: with M = -L, tI - M at t = 0 is L,
    # whose band Cholesky runs through n - 1 unit pivots to an exactly
    # zero last one; the shift is nudged once and L + dI factors
    n = 30
    rows, cols, vals = path_laplacian(n)
    calls = spy_on(monkeypatch, "dpbtrf")
    assert _Shifted(n, rows, cols, vals).exceeds(0.0)
    calls.clear()
    minus = _Shifted(n, rows, cols, -vals)
    assert minus.band is not None and minus.band.shape == (2, n)
    assert not minus.exceeds(0.0)
    assert [out[1] for _, out in calls] == [n, 0]
    (work,), _ = calls[0]
    assert work[0, n - 1] == 0.0


def test_band_inertia_survives_shifts_on_diagonal_entries(monkeypatch):
    # a diagonal M at each of its entries: the pivot t - M_ii is exactly
    # zero, and the answer is whether another entry lies above t
    d = np.array([3.0, -1.0, 3.0, 2.0, 5.0, 2.0, -1.0])
    n = d.size
    for fill in (np.inf, 0.0):
        monkeypatch.setattr(recovery, "BAND_FILL", fill)
        shifted = _Shifted(n, np.arange(n), np.arange(n), d)
        assert (shifted.band is None) == (fill == 0.0)
        for t in d.tolist():
            assert shifted.exceeds(t) == bool(np.any(d > t)), (fill, t)


def narrow_band(rng, n, kd):
    """Lower triplets of a random symmetric matrix of half bandwidth kd:
    the diagonal, and each other band entry with probability 1/2, one of
    them on the kd-th subdiagonal."""
    i, j = np.tril_indices(n, -1)
    keep = (i - j <= kd) & (rng.random(i.size) < 0.5)
    if kd:
        keep[np.flatnonzero(i - j == kd)[0]] = True
    rows = np.r_[np.arange(n), i[keep]]
    cols = np.r_[np.arange(n), j[keep]]
    return rows, cols, rng.standard_normal(rows.size)


def test_band_and_superlu_inertia_agree_on_narrow_bands(monkeypatch):
    # the band Cholesky and SuperLU's LDL^T give the same answer as the
    # dense eigenvalues at shifts between eigenvalues; narrow bands take
    # the band path by default
    rng = np.random.default_rng(3207)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        kd = int(rng.integers(0, min(n - 1, 4) + 1))
        rows, cols, vals = narrow_band(rng, n, kd)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        dense += np.tril(dense, -1).T
        eig = np.linalg.eigvalsh(dense)
        shifts = np.r_[eig[0] - 1.0, 0.5 * (eig[:-1] + eig[1:]), eig[-1] + 1.0]
        shifts = shifts[np.abs(shifts - eig[-1]) > 1e-9 * (1.0 + abs(eig[-1]))]
        band = _Shifted(n, rows, cols, vals)
        assert band.band is not None and band.band.shape == (kd + 1, n)
        monkeypatch.setattr(recovery, "BAND_FILL", 0.0)
        lu = _Shifted(n, rows, cols, vals)
        monkeypatch.undo()
        assert lu.band is None
        assert (band.upper, band.scale) == (lu.upper, lu.scale)
        for t in shifts.tolist():
            assert band.exceeds(t) == lu.exceeds(t) == (eig[-1] > t)


def test_path_metrics_make_no_superlu_call(monkeypatch):
    # the path's own vertex order has half bandwidth 1: every inertia
    # test of ||C|| and of the slack is one band Cholesky
    def no_superlu(*args, **kwargs):
        raise AssertionError("SuperLU called on a banded pattern")

    monkeypatch.setattr(recovery, "splu", no_superlu)
    calls = spy_on(monkeypatch, "dpbtrf")
    m = dimacs_metrics(*path_maxcut_at(2000, 0.3))
    assert calls
    assert 0.0 < m.dinf < 16.0 and m.L == min(m.pinf, m.dinf, m.gap)


def test_renumbered_path_takes_superlu_and_scores_alike(monkeypatch):
    # vertices renumbered at random give the same problem a wide natural
    # band, so its inertia tests go to SuperLU; the scores agree with
    # the band path's to the bisection's precision
    n = 2000
    sdp, factor, y = path_maxcut_at(n, 0.3)
    banded = dimacs_metrics(sdp, factor, y)
    new = np.random.default_rng(3208).permutation(n)  # vertex v -> new[v]
    renumbered = gen_maxcut(Graph(n, [(new[i], new[i + 1]) for i in range(n - 1)]))
    u = np.empty_like(factor.U)
    u[new] = factor.U
    superlu = spy_on(monkeypatch, "splu")
    band = spy_on(monkeypatch, "dpbtrf")
    got = dimacs_metrics(renumbered, LowRankFactor(U=u), y)
    assert superlu and not band
    for key in ("pinf", "dinf", "gap", "L"):
        assert getattr(got, key) == pytest.approx(
            getattr(banded, key), abs=INERTIA_DIGITS
        ), key


def test_star_metrics_keep_superlu(monkeypatch):
    # the hub is the last vertex, so the slack's natural band is the
    # whole matrix: it goes to SuperLU, and the scores match the oracle
    rng = np.random.default_rng(3209)
    sdp = star_arrow_problem(250)
    superlu = spy_on(monkeypatch, "splu")
    band = spy_on(monkeypatch, "dpbtrf")
    m = assert_scores_match_oracle(
        sdp, LowRankFactor(U=rng.standard_normal((sdp.n, 2))),
        rng.standard_normal(sdp.m),
    )
    assert m.dinf < 16.0
    assert superlu and not band


def test_metrics_json_shape():
    # the solve's status and the four scores of dimacs_metrics, with the
    # solve's iteration count and median iteration time, then the
    # decomposition's width and bags
    out = solve_sdp(one_by_one_toy(), method="dctc")
    payload = json.loads(out.metrics_json())
    assert set(payload) == {
        "status",
        "pinf",
        "dinf",
        "gap",
        "L",
        "iters",
        "time_per_iter_s",
        "omega",
        "ell",
    }
    assert payload["status"] == out.status
    assert payload["iters"] == out.result.iterations
    assert payload["time_per_iter_s"] == pytest.approx(
        out.result.time_per_iter_s
    )
    assert payload["L"] == min(payload["pinf"], payload["dinf"], payload["gap"])
