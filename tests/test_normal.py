"""Tests for the block-tree normal-equation engine.

Oracles: dense construction of H from scratch (dense_h_oracle), dense
numpy solves of (H + q q^T), the block-by-block ``solve_triangular``
engine (ReferenceTreeNormal, matched bit for bit), and a symbolic
block-elimination fill simulator for orderings.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from treesdp import normal
from treesdp.chordal import Graph, TreeDecomposition, decompose, sparsity_graph
from treesdp.convert import build_ctc, dualize, separate_with_aux
from treesdp.errors import (
    DenominatorUnderflow,
    DimensionMismatch,
    IndefinitePivot,
    NotFinite,
    StructureViolation,
)
from treesdp.normal import (
    GROUP_WIDTH,
    DenseNormalSystem,
    TreeNormalSystem,
    group_bags,
)

from util import (
    ReferenceTreeNormal,
    SparseSymmetric,
    dense_h_oracle,
    h_dense,
    make_problem,
    plain_row_coupling,
    random_partially_separable_problem,
    random_rooted_tree,
    random_scaling_data,
    reconstruct_dense,
    stack_scalings,
    star_arrow_problem,
    with_wide_constraint,
)


def path_problem(n, m=2, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    cost = SparseSymmetric(
        order=n, rows=list(range(n)), cols=list(range(n)), vals=[1.0] * n
    )
    constraints = []
    for k in range(m):
        i = int(rng.integers(0, n - 1))
        constraints.append(
            SparseSymmetric(order=n, rows=[i + 1], cols=[i], vals=[1.0])
        )
    b = 0.1 * np.arange(1, m + 1)
    problem = make_problem(cost, constraints, b)
    td = decompose(Graph(n, edges))
    return problem, td


def build_system(problem, td, with_aux=False, seed=1):
    ctc = (
        separate_with_aux(problem, td)
        if with_aux
        else build_ctc(problem, td)
    )
    dual = dualize(ctc)
    sys_ = TreeNormalSystem(dual)
    rng = np.random.default_rng(seed)
    sigma, q, psd_w, nn_w2 = random_scaling_data(rng, ctc)
    return ctc, sys_, sigma, q, psd_w, nn_w2


# ---------------------------------------------------------------------------
# block elimination order (the decomposition's postorder)
# ---------------------------------------------------------------------------


def test_postorder_identity_when_already_topological():
    problem, td = path_problem(4)
    # path decomposition: parent of each bag is the next one; already
    # topological, so the postorder is the identity
    assert all(int(td.parent[j]) in (j, j + 1) for j in range(td.ell))
    assert list(td.postorder()) == list(range(td.ell))
    _, sys_, *_ = build_system(problem, td)
    assert [j for group in sys_.groups for j in group] == list(td.postorder())


def test_postorder_star_leaves_first():
    problem = star_arrow_problem(6)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    order = td.postorder()
    assert order[-1] == td.root
    for j in order[:-1]:
        assert int(td.parent[j]) == td.root


# ---------------------------------------------------------------------------
# groups of bags
# ---------------------------------------------------------------------------

CAPS = (0, GROUP_WIDTH, np.inf)  # no merge, the engine's cap, one group


def _star(leaves):
    return TreeDecomposition(
        n=leaves + 1,
        bags=[(j,) for j in range(leaves + 1)],
        parent=np.zeros(leaves + 1, dtype=np.int64),
    )


@pytest.mark.parametrize("cap", CAPS)
def test_group_bags_is_a_capped_tree_partition(cap):
    rng = np.random.default_rng(61)
    trees = [random_rooted_tree(rng, ell) for ell in (1, 2, 7, 40, 120)]
    trees += [_star(leaves) for leaves in (1, 5, 30)]
    for td in trees:
        widths = rng.integers(1, 21, size=td.ell).tolist()
        groups = group_bags(td, widths, cap)
        assert sorted(j for g in groups for j in g) == list(range(td.ell))
        group_of = {j: k for k, g in enumerate(groups) for j in g}
        roots = 0
        for k, g in enumerate(groups):
            assert list(g) == sorted(g, key=td.post_index.__getitem__)
            assert len(g) == 1 or sum(widths[j] for j in g) <= cap
            # every bag edge that leaves the group goes to one attach bag,
            # in a later group: the groups form a tree, children first
            attach = {
                int(td.parent[j]) for j in g
                if group_of[int(td.parent[j])] != k
            }
            if td.root in g:
                roots += 1
                assert not attach
            else:
                assert len(attach) == 1 and group_of[attach.pop()] > k
        assert roots == 1
        if cap == 0:
            assert len(groups) == td.ell
        if cap == np.inf:
            assert len(groups) == 1


def _grouping_instances():
    rng = np.random.default_rng(67)
    out = [path_problem(14, m=3)]
    problem = star_arrow_problem(11)
    out.append(
        (problem, decompose(sparsity_graph(problem.n, problem.triplets)))
    )
    for _ in range(4):
        out.append(
            random_partially_separable_problem(
                rng, int(rng.integers(8, 16)), 4, ineq_prob=0.3
            )
        )
    return out


@pytest.mark.parametrize("cap", CAPS)
def test_solve_with_rank1_matches_dense_oracle_for_each_cap(cap, monkeypatch):
    monkeypatch.setattr(normal, "GROUP_WIDTH", cap)
    rng = np.random.default_rng(71)
    for trial, (problem, td) in enumerate(_grouping_instances()):
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, seed=400 + trial
        )
        sys_.update(sigma, q, psd_w, nn_w2)
        rhs = rng.standard_normal((ctc.dim_z, 3))
        x_ref = np.linalg.solve(h_dense(sys_) + np.outer(q, q), rhs)
        x = sys_.solve_with_rank1(rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("cap", CAPS)
def test_factor_has_no_bag_fill_for_each_cap(cap, monkeypatch):
    # merged group blocks store every bag pair; those that are not tree
    # edges must stay exactly zero in H and in L
    monkeypatch.setattr(normal, "GROUP_WIDTH", cap)
    for trial, (problem, td) in enumerate(_grouping_instances()):
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, seed=500 + trial
        )
        sys_.assemble_h(sigma, psd_w, nn_w2)
        sys_.factor()
        in_h, in_l = sys_.nonzero_bag_pairs()
        for a, b in in_l.tolist():
            assert int(td.parent[a]) == b or int(td.parent[b]) == a
        assert np.array_equal(in_h, in_l)
        stats = sys_.pattern_stats()
        assert stats["blocks"] == td.ell
        assert stats["groups"] == len(sys_.groups)
        assert stats["fill_blocks"] == 0


# ---------------------------------------------------------------------------
# assembly vs dense oracle
# ---------------------------------------------------------------------------


def test_assemble_matches_dense_oracle_random():
    rng = np.random.default_rng(7)
    for trial in range(8):
        problem, td = random_partially_separable_problem(
            rng, int(rng.integers(4, 10)), 3, ineq_prob=0.4
        )
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, seed=trial
        )
        sys_.assemble_h(sigma, psd_w, nn_w2)
        oracle = dense_h_oracle(ctc, sigma, psd_w, nn_w2)
        assert np.allclose(h_dense(sys_), oracle, atol=1e-12)


def test_assemble_matches_dense_oracle_with_aux():
    rng = np.random.default_rng(11)
    for trial in range(4):
        base, _ = random_partially_separable_problem(rng, 8, 2)
        problem = with_wide_constraint(base)
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, with_aux=True, seed=trial
        )
        assert ctc.aux_plan is not None and ctc.aux_plan.n_aux > 0
        sys_.assemble_h(sigma, psd_w, nn_w2)
        oracle = dense_h_oracle(ctc, sigma, psd_w, nn_w2)
        assert np.allclose(h_dense(sys_), oracle, atol=1e-12)


def test_no_constraint_path_gives_identity_plus_overlap_gram():
    problem, td = path_problem(3, m=1)
    ctc = build_ctc(problem, td)
    # drop the single equality row: H should be exactly I + sigma N^T N
    bare = dataclasses.replace(
        ctc,
        a_rows=sp.csr_matrix((0, ctc.dim_z)),
        g_rhs=np.zeros(ctc.n_rows.shape[0]),
        row_kind=[],
        block_of_row=ctc.block_of_row[ctc.a_rows.shape[0]:],
        dual_row_of_constraint=np.zeros(0, dtype=np.int64),
    )
    sys_ = TreeNormalSystem(dualize(bare))
    sigma = 0.7
    psd_w, nn_w2 = stack_scalings(
        bare,
        [np.eye(blk.order) for blk in bare.blocks],
        [np.ones(blk.n_nn) for blk in bare.blocks],
    )
    sys_.assemble_h(sigma, psd_w, nn_w2)
    n_rows = bare.n_rows.toarray()
    oracle = np.eye(bare.dim_z) + sigma * (n_rows.T @ n_rows)
    assert np.allclose(h_dense(sys_), oracle, atol=1e-14)
    sys_.factor()
    assert sys_.offdiag_block_counts() == (1, 1)


def test_structure_violation_on_nonadjacent_row():
    problem, td = path_problem(4, m=1)
    ctc = build_ctc(problem, td)
    assert ctc.td.ell >= 3
    # fabricate a row claiming to touch two non-adjacent blocks
    bad = list(ctc.block_of_row)
    pairs = [
        (a, b)
        for a in range(ctc.td.ell)
        for b in range(a + 1, ctc.td.ell)
        if int(ctc.td.parent[a]) != b and int(ctc.td.parent[b]) != a
    ]
    bad[0] = pairs[0]
    corrupted = dataclasses.replace(ctc, block_of_row=bad)
    with pytest.raises(StructureViolation):
        TreeNormalSystem(dualize(corrupted))


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factor_reconstructs_h():
    rng = np.random.default_rng(17)
    for trial in range(6):
        problem, td = random_partially_separable_problem(
            rng, int(rng.integers(4, 10)), 3, ineq_prob=0.3
        )
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, seed=100 + trial
        )
        sys_.assemble_h(sigma, psd_w, nn_w2)
        sys_.factor()
        h = h_dense(sys_)
        rec = reconstruct_dense(sys_)
        assert np.linalg.norm(rec - h) <= 1e-10 * np.linalg.norm(h)


def test_factor_no_fill_block_counts_match():
    rng = np.random.default_rng(23)
    for trial in range(10):
        problem, td = random_partially_separable_problem(
            rng, int(rng.integers(5, 14)), 4
        )
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, seed=200 + trial
        )
        sys_.assemble_h(sigma, psd_w, nn_w2)
        sys_.factor()
        in_h, in_l = sys_.offdiag_block_counts()
        assert in_h == in_l


def test_block_diagonal_h_gives_block_diagonal_factor():
    # sigma = 0 removes all coupling rows: H is block diagonal, and so is L
    problem, td = path_problem(4, m=2)
    ctc, sys_, _, q, psd_w, nn_w2 = build_system(problem, td, seed=5)
    sys_.assemble_h(0.0, psd_w, nn_w2)
    sys_.factor()
    assert sys_.offdiag_block_counts() == (0, 0)
    for blk in sys_.l_off:
        assert blk is None or not np.any(blk != 0.0)


def test_indefinite_pivot_raised():
    problem, td = path_problem(3, m=1)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=9)
    psd_w = {o: w.copy() for o, w in psd_w.items()}
    psd_w[ctc.blocks[0].order][0][0, 0] = -50.0  # block 0: not a scaling
    sys_.assemble_h(0.0, psd_w, nn_w2)
    with pytest.raises(IndefinitePivot):
        sys_.factor()


def hub_first_fill_oracle(parent, root, order):
    """Symbolic block elimination: count fill blocks created by `order`."""
    ell = len(parent)
    adj = {j: set() for j in range(ell)}
    for j in range(ell):
        p = int(parent[j])
        if p != j:
            adj[j].add(p)
            adj[p].add(j)
    fill = 0
    eliminated = set()
    for v in order:
        nbrs = [u for u in adj[v] if u not in eliminated]
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                x, y = nbrs[a], nbrs[b]
                if y not in adj[x]:
                    adj[x].add(y)
                    adj[y].add(x)
                    fill += 1
        eliminated.add(v)
    return fill


def test_star_tree_orderings_fill_negative_control():
    problem = star_arrow_problem(8)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    post = list(td.postorder())
    assert hub_first_fill_oracle(td.parent, td.root, post) == 0
    hub_first = [td.root] + [j for j in post if j != td.root]
    leaves = td.ell - 1
    assert (
        hub_first_fill_oracle(td.parent, td.root, hub_first)
        == leaves * (leaves - 1) // 2
    )


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_solve_with_rank1_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for trial in range(8):
        problem, td = random_partially_separable_problem(
            rng, int(rng.integers(4, 10)), 3, ineq_prob=0.3
        )
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, seed=300 + trial
        )
        sys_.update(sigma, q, psd_w, nn_w2)
        rhs = rng.standard_normal((ctc.dim_z, 3))
        x = sys_.solve_with_rank1(rhs)
        h = dense_h_oracle(ctc, sigma, psd_w, nn_w2)
        n_full = h + np.outer(q, q)
        x_ref = np.linalg.solve(n_full, rhs)
        resid = rhs - n_full @ x
        assert np.linalg.norm(resid) <= 1e-9 * (1 + np.linalg.norm(rhs))
        assert np.allclose(x, x_ref, atol=1e-7, rtol=1e-7)


def test_solve_identity_rank_one_halves_e1():
    # H = I (identity scalings, sigma=0, no chain coords), q = e1, rhs = e1
    problem, td = path_problem(3, m=1)
    ctc = build_ctc(problem, td)
    sys_ = TreeNormalSystem(dualize(ctc))
    psd_w, nn_w2 = stack_scalings(
        ctc,
        [np.eye(blk.order) for blk in ctc.blocks],
        [np.ones(blk.n_nn) for blk in ctc.blocks],
    )
    e1 = np.zeros(ctc.dim_z)
    e1[0] = 1.0
    sys_.update(0.0, e1, psd_w, nn_w2)
    x = sys_.solve_with_rank1(e1)
    expect = e1 / 2.0
    assert np.allclose(x, expect, atol=1e-14)


def test_solve_with_zero_q_is_plain_solve():
    rng = np.random.default_rng(37)
    problem, td = random_partially_separable_problem(rng, 7, 3)
    ctc, sys_, sigma, _, psd_w, nn_w2 = build_system(problem, td, seed=8)
    rhs = rng.standard_normal(ctc.dim_z)
    sys_.update(sigma, np.zeros(ctc.dim_z), psd_w, nn_w2)
    x_zero_q = sys_.solve_with_rank1(rhs)
    sys_.set_rank1(None)
    x_plain = sys_.solve_with_rank1(rhs)
    assert np.allclose(x_zero_q, x_plain, atol=1e-12)
    h = dense_h_oracle(ctc, sigma, psd_w, nn_w2)
    assert np.allclose(x_plain, np.linalg.solve(h, rhs), atol=1e-8)


def test_solve_single_vector_shape_roundtrip():
    rng = np.random.default_rng(41)
    problem, td = random_partially_separable_problem(rng, 6, 2)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=12)
    sys_.update(sigma, q, psd_w, nn_w2)
    rhs = rng.standard_normal(ctc.dim_z)
    x1 = sys_.solve_with_rank1(rhs)
    assert x1.shape == (ctc.dim_z,)
    x2 = sys_.solve_with_rank1(rhs.reshape(-1, 1))
    assert x2.shape == (ctc.dim_z, 1)
    assert np.allclose(x1, x2[:, 0], atol=0)
    with pytest.raises(DimensionMismatch):
        sys_.solve_with_rank1(np.ones(ctc.dim_z + 1))


def test_denominator_underflow_guard():
    problem, td = path_problem(3, m=1)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=2)
    sys_.assemble_h(sigma, psd_w, nn_w2)
    sys_.factor()

    class Hostile(TreeNormalSystem):
        def solve_h(self, rhs):
            return -np.asarray(rhs, dtype=float)

    sys_.__class__ = Hostile
    with pytest.raises(DenominatorUnderflow):
        sys_.set_rank1(np.ones(ctc.dim_z))


# ---------------------------------------------------------------------------
# coupling pattern and instrumentation
# ---------------------------------------------------------------------------


def test_star_plain_mode_overlap_coupling_is_dense():
    problem = star_arrow_problem(6)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    ctc = build_ctc(problem, td)
    pairs = plain_row_coupling(ctc)
    m = ctc.a_rows.shape[0]
    n_over = ctc.n_overlap
    assert n_over == td.ell - 1
    overlap_rows = list(range(m, m + n_over))
    for a in range(n_over):
        for b in range(a + 1, n_over):
            assert (overlap_rows[a], overlap_rows[b]) in pairs


def test_star_dualized_h_has_tree_pattern():
    problem = star_arrow_problem(6)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=3)
    sys_.assemble_h(sigma, psd_w, nn_w2)
    sys_.factor()
    in_h, in_l = sys_.offdiag_block_counts()
    assert in_h == td.ell - 1
    assert in_l == td.ell - 1


def test_memory_counter_equals_walk_over_blocks():
    rng = np.random.default_rng(47)
    problem, td = random_partially_separable_problem(rng, 9, 3, ineq_prob=0.5)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=6)
    sys_.update(sigma, q, psd_w, nn_w2)
    walked = sum(
        blk.nbytes
        for group in (sys_.h_diag, sys_.h_off, sys_.l_diag, sys_.l_off)
        for blk in group
        if blk is not None
    ) + sys_._gtg_pos.nbytes + sys_._gtg_val.nbytes + q.nbytes + (
        sys_._u_q.nbytes
    )
    assert sys_.memory_bytes() == walked
    assert sys_.pattern_stats()["bytes"] == walked
    sys_.set_rank1(None)  # the counter keeps its peak
    assert sys_.memory_bytes() == walked


def test_memory_counter_grows_linearly_in_blocks():
    sizes = [20, 40]
    bytes_seen = []
    for n in sizes:
        problem, td = path_problem(n, m=2)
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=4)
        sys_.update(sigma, q, psd_w, nn_w2)
        stats = sys_.pattern_stats()
        assert stats["fill_blocks"] == 0
        assert stats["blocks"] == td.ell
        bytes_seen.append(stats["bytes"])
    ratio = bytes_seen[1] / bytes_seen[0]
    assert 1.5 <= ratio <= 2.7


def test_dense_normal_system_matches_direct_solve():
    rng = np.random.default_rng(43)
    dim_y, dim_x = 5, 9
    m = rng.standard_normal((dim_y, dim_x))
    d = np.abs(rng.standard_normal(dim_x)) + 0.5
    sys_ = DenseNormalSystem(m)
    sys_.update(lambda cols: cols / d[:, None])
    rhs = rng.standard_normal((dim_y, 2))
    x = sys_.solve(rhs)
    n_full = m @ np.diag(1.0 / d) @ m.T
    assert np.allclose(x, np.linalg.solve(n_full, rhs), atol=1e-10)


# ---------------------------------------------------------------------------
# non-finite input and the block-by-block reference engine
# ---------------------------------------------------------------------------


def test_factor_rejects_non_finite_offdiagonal_block():
    problem, td = path_problem(12, m=2)  # long enough for several groups
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=3)
    sys_.assemble_h(sigma, psd_w, nn_w2)
    child = next(j for j, blk in enumerate(sys_.h_off) if blk is not None)
    sys_.h_off[child][0, 0] = np.nan
    with pytest.raises(NotFinite):
        sys_.factor()


def _misshapen_scaling_data(psd_w, nn_w2, o):
    """Each way the scaling data can mismatch the blocks: an order-o stack
    one matrix short, an order-o stack of order o + 1, and a slack vector
    one entry too long."""
    stack = psd_w[o]
    g = stack.shape[0]
    return [
        ({**psd_w, o: stack[:-1]}, nn_w2, f"order-{o} "),
        ({**psd_w, o: np.stack([np.eye(o + 1)] * g)}, nn_w2, f"order-{o} "),
        (psd_w, np.append(nn_w2, 1.0), "slack"),
    ]


def test_failed_assembly_is_not_factored():
    problem, td = path_problem(5, m=2)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=3)
    for bad_w, bad_nn, _ in _misshapen_scaling_data(psd_w, nn_w2, 2):
        sys_.update(sigma, q, psd_w, nn_w2)
        with pytest.raises(DimensionMismatch):
            sys_.assemble_h(sigma, bad_w, bad_nn)
        with pytest.raises(StructureViolation):
            sys_.factor()


def test_assemble_rejects_one_misshapen_scaling_matrix():
    # mixed bag orders with slacks; only one order's stack (or the slack
    # vector) is wrong, and the error names it
    problem, td, with_aux = _reference_instance("dctc-aux")
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
        problem, td, with_aux=with_aux, seed=3
    )
    assert len(psd_w) > 1 and nn_w2.size
    for o in psd_w:
        for bad_w, bad_nn, name in _misshapen_scaling_data(psd_w, nn_w2, o):
            with pytest.raises(DimensionMismatch, match=name):
                sys_.assemble_h(sigma, bad_w, bad_nn)
        missing = {k: w for k, w in psd_w.items() if k != o}
        with pytest.raises(DimensionMismatch, match=f"order-{o} "):
            sys_.assemble_h(sigma, missing, nn_w2)
    sys_.assemble_h(sigma, psd_w, nn_w2)  # the well-formed data passes


def test_solve_h_rejects_non_finite_rhs():
    problem, td = path_problem(5, m=2)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=3)
    sys_.update(sigma, q, psd_w, nn_w2)
    rhs = np.ones((ctc.dim_z, 2))
    rhs[ctc.dim_z - 1, 1] = np.inf
    with pytest.raises(NotFinite):
        sys_.solve_h(rhs)
    with pytest.raises(NotFinite):
        sys_.solve_with_rank1(rhs)


def _reference_instance(kind):
    rng = np.random.default_rng(53)
    if kind == "path":
        problem, td = path_problem(12, m=3)
        return problem, td, False
    if kind == "star":
        problem = star_arrow_problem(9)
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        return problem, td, False
    if kind == "random-tree":
        problem, td = random_partially_separable_problem(
            rng, 14, 5, ineq_prob=0.3
        )
        return problem, td, False
    base, _ = random_partially_separable_problem(rng, 9, 3, ineq_prob=0.7)
    problem = with_wide_constraint(base)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    return problem, td, True


@pytest.mark.parametrize("kind", ["path", "star", "random-tree", "dctc-aux"])
def test_engine_matches_reference_bit_for_bit(kind):
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
        problem, td, with_aux=with_aux, seed=19
    )
    ref = ReferenceTreeNormal(sys_.dualized)
    widths = {blk.width for blk in ctc.blocks}
    if kind == "random-tree":
        assert len(widths) > 1
    if kind == "dctc-aux":
        assert ctc.aux_plan.n_aux > 0
        assert any(blk.n_nn for blk in ctc.blocks)
    sys_.update(sigma, q, psd_w, nn_w2)
    # a second iteration's data: the engine rewrites its buffers in place
    sigma, q, psd_w, nn_w2 = random_scaling_data(
        np.random.default_rng(23), ctc
    )
    sys_.update(sigma, q, psd_w, nn_w2)
    ref.update(sigma, q, psd_w, nn_w2)

    def same(a, b):
        return all(
            (x is None and y is None) or np.array_equal(x, y)
            for x, y in zip(a, b, strict=True)
        )

    gtg_flat = np.zeros(sys_._n_flat)
    gtg_flat[sys_._gtg_pos] = sys_._gtg_val
    gtg_diag, gtg_off = sys_._blocks(gtg_flat)
    assert same(gtg_diag, ref.gtg_diag) and same(gtg_off, ref.gtg_off)
    assert same(sys_.h_diag, ref.h_diag) and same(sys_.h_off, ref.h_off)
    assert same(sys_.l_diag, ref.l_diag) and same(sys_.l_off, ref.l_off)
    rng = np.random.default_rng(59)
    for rhs in (
        rng.standard_normal(ctc.dim_z),
        rng.standard_normal((ctc.dim_z, 3)),
    ):
        assert np.array_equal(sys_.solve_h(rhs), ref.solve_h(rhs))
        assert np.array_equal(sys_.apply_h(rhs), ref.apply_h(rhs))
        assert np.array_equal(
            sys_.solve_with_rank1(rhs), ref.solve_with_rank1(rhs)
        )
