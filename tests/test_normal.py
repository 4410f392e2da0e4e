"""Tests for the block-tree normal-equation engine.

Oracles: dense construction of H from scratch (dense_h_oracle), dense
numpy solves of (H + q q^T), the block-by-block ``solve_triangular``
engine (ReferenceTreeNormal, matched bit for bit), and a symbolic
block-elimination fill simulator for orderings.
"""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.lib.array_utils import byte_bounds

from treesdp import normal
from treesdp.chordal import Graph, TreeDecomposition, decompose, sparsity_graph
from treesdp.convert import build_ctc, dualize, separate_with_aux
from treesdp.frontends import gen_lovasz_theta, gen_maxkcut, solve_sdp
from treesdp.errors import (
    DenominatorUnderflow,
    DimensionMismatch,
    IndefinitePivot,
    NotFinite,
    StructureViolation,
)
from treesdp.linalg import tri
from treesdp.normal import (
    GROUP_WIDTH,
    DenseNormalSystem,
    TreeNormalSystem,
    group_bags,
    row_bags,
)

from util import (
    ReferenceTreeNormal,
    SparseSymmetric,
    _dense_blocks,
    buffer_h_dense,
    dense_h_oracle,
    factor_bands,
    h_dense,
    loop_factor_ops,
    loop_kron_runs,
    make_problem,
    measured_pattern,
    nonzero_bag_pairs,
    offdiag_block_counts,
    path_rayleigh_problem,
    plain_row_coupling,
    power_flow_problem,
    random_partially_separable_problem,
    random_rooted_tree,
    random_scaling_data,
    reconstruct_dense,
    reference_sweep_runs,
    same_bits,
    stack_scalings,
    star_arrow_problem,
    unique_row_bags,
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

# no merge, a cap below the engine's, the engine's cap, one group
CAPS = (0, 16, GROUP_WIDTH, np.inf)


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
        in_h, in_l = nonzero_bag_pairs(sys_)
        for a, b in in_l.tolist():
            assert int(td.parent[a]) == b or int(td.parent[b]) == a
        assert np.array_equal(in_h, in_l)
        stats = sys_.pattern_stats()
        assert stats["blocks"] == td.ell
        assert stats["groups"] == len(sys_.groups)
        assert stats["fill_blocks"] == 0


@pytest.mark.parametrize("cap", CAPS)
def test_structural_pattern_equals_measured_for_each_cap(cap, monkeypatch):
    # pattern_stats counts the tree-adjacent bag pairs that share a row of
    # G; after a real update, H's and L's numbers show exactly those
    monkeypatch.setattr(normal, "GROUP_WIDTH", cap)
    for trial, (problem, td) in enumerate(_grouping_instances()):
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, seed=500 + trial
        )
        sys_.update(sigma, q, psd_w, nn_w2)
        stats, measured = sys_.pattern_stats(), measured_pattern(sys_)
        assert measured["fill_blocks"] == 0
        assert (
            stats["offdiag_blocks"]
            == stats["factor_offdiag_blocks"]
            == measured["offdiag_blocks"]
            == measured["factor_offdiag_blocks"]
        )


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
        assert ctc.n_aux.sum() > 0
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
        dual_row_of_constraint=np.zeros(0, dtype=np.int64),
    )
    sys_ = TreeNormalSystem(dualize(bare))
    sigma = 0.7
    psd_w, nn_w2 = stack_scalings(
        bare,
        [np.eye(o) for o in bare.order.tolist()],
        [np.ones(k) for k in bare.n_nn.tolist()],
    )
    sys_.assemble_h(sigma, psd_w, nn_w2)
    n_rows = bare.n_rows.toarray()
    oracle = np.eye(bare.dim_z) + sigma * (n_rows.T @ n_rows)
    assert np.allclose(h_dense(sys_), oracle, atol=1e-14)
    sys_.factor()
    assert offdiag_block_counts(sys_) == (1, 1)


def with_extra_row(ctc, bags):
    """``ctc`` with one more A-row: a unit entry in the first coordinate of
    each bag of ``bags``."""
    cols = ctc.svec_start[list(bags)]
    row = sp.csr_matrix(
        (np.ones(cols.size), (np.zeros(cols.size, dtype=np.int64), cols)),
        shape=(1, ctc.dim_z),
    )
    m = ctc.a_rows.shape[0]
    return dataclasses.replace(
        ctc,
        a_rows=sp.vstack([ctc.a_rows, row], format="csr"),
        g_rhs=np.insert(ctc.g_rhs, m, 0.0),
    )


def test_structure_violation_on_nonadjacent_row():
    problem, td = path_problem(4, m=1)
    ctc = build_ctc(problem, td)
    ell, parent = td.ell, td.parent
    assert ell >= 3
    TreeNormalSystem(dualize(ctc))  # the conversion's own rows pass
    far = next(
        (a, b)
        for a in range(ell)
        for b in range(a + 1, ell)
        if parent[a] != b and parent[b] != a
    )
    # rows of G: the A-rows, then the overlap rows; the new row is row
    # m + 1, counting from 1 like the bags
    m = ctc.a_rows.shape[0]
    for bags in (far, (0, 1, 2)):
        one_based = tuple(j + 1 for j in bags)
        named = re.escape(f"row {m + 1} of G touches bags {one_based}")
        with pytest.raises(StructureViolation, match=named):
            TreeNormalSystem(dualize(with_extra_row(ctc, bags)))


def test_dctc_rejects_a_row_over_many_bags():
    # the Rayleigh constraint spans every bag of the path: one row of G
    # under dctc, a chain of two-bag rows under dctc-aux
    problem = path_rayleigh_problem(6)
    with pytest.raises(StructureViolation, match="row 1 of G"):
        solve_sdp(problem, method="dctc")
    assert solve_sdp(problem, method="dctc-aux").status == "optimal"


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
        in_h, in_l = offdiag_block_counts(sys_)
        assert in_h == in_l


def test_block_diagonal_h_gives_block_diagonal_factor():
    # sigma = 0 removes all coupling rows: H is block diagonal, and so is L
    problem, td = path_problem(4, m=2)
    ctc, sys_, _, q, psd_w, nn_w2 = build_system(problem, td, seed=5)
    sys_.assemble_h(0.0, psd_w, nn_w2)
    sys_.factor()
    assert offdiag_block_counts(sys_) == (0, 0)
    for blk in sys_.l_off:
        assert blk is None or not np.any(blk != 0.0)


def test_indefinite_pivot_raised():
    problem, td = path_problem(3, m=1)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=9)
    psd_w = {o: w.copy() for o, w in psd_w.items()}
    psd_w[int(ctc.order[0])][0][0, 0] = -50.0  # block 0: not a scaling
    sys_.assemble_h(0.0, psd_w, nn_w2)
    with pytest.raises(IndefinitePivot) as err:
        sys_.factor()
    # the bags of the failing group, numbered from 1
    group = next(g for g in sys_.groups if 0 in g)
    assert f"bags {tuple(j + 1 for j in group)} " in str(err.value)


def test_non_pd_group_raises_indefinite_pivot_naming_its_bags():
    # sigma = 0 leaves H block diagonal, so the group that fails is the one
    # holding the bag whose scaling is indefinite; its bags count from 1,
    # and L does not count as factored until a factor completes
    problem, td = path_problem(40, m=2)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=9)
    groups = sys_.groups
    assert len(groups) >= 3
    for group in (groups[0], groups[len(groups) // 2], groups[-1]):
        j = group[-1]
        o = int(ctc.order[j])
        bad = {k: w.copy() for k, w in psd_w.items()}
        bad[o][int(np.sum(ctc.order[:j] == o))][0, 0] = -50.0
        sys_.assemble_h(0.0, bad, nn_w2)
        with pytest.raises(IndefinitePivot) as err:
            sys_.factor()
        assert f"bags {tuple(b + 1 for b in group)} " in str(err.value)
        with pytest.raises(StructureViolation):
            sys_.solve_h(np.ones(sys_.dim))
    sys_.update(sigma, q, psd_w, nn_w2)
    rhs = np.random.default_rng(3).standard_normal(sys_.dim)
    assert np.allclose(sys_.apply_h(sys_.solve_h(rhs)), rhs, atol=1e-8)


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
        [np.eye(o) for o in ctc.order.tolist()],
        [np.ones(k) for k in ctc.n_nn.tolist()],
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
    n_over = ctc.n_rows.shape[0]
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
    in_h, in_l = offdiag_block_counts(sys_)
    assert in_h == td.ell - 1
    assert in_l == td.ell - 1


def test_memory_counter_equals_walk_over_blocks():
    # the star's leaf groups form a run without links, and the chain on a
    # path under dctc-aux one with links: their bands and index arrays
    # count, and so do H's parts, which apply_h reads
    rng = np.random.default_rng(47)
    random_tree = random_partially_separable_problem(rng, 9, 3, ineq_prob=0.5)
    cases = (
        ((*random_tree, False), None),
        (_reference_instance("star"), "siblings"),
        (_reference_instance("path-aux"), "links"),
    )
    for (problem, td, with_aux), runs in cases:
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
            problem, td, with_aux=with_aux, seed=6
        )
        before = sys_.memory_bytes()  # allocated with the engine
        sys_.update(sigma, q, psd_w, nn_w2)
        stacked = [run for run in sys_._runs if run.n > 1]
        assert bool(stacked) == (runs is not None)
        assert any(run.out.size < run.n for run in stacked) == (
            runs == "links"
        )
        gtg = sys_._gtg
        # the blocks, and the buffer's zero slot that the bands gather
        walked = sum(
            blk.nbytes
            for group in (sys_.l_diag, sys_.l_off)
            for blk in group
            if blk is not None
        ) + 8 + sys_._gtg_pos.nbytes + sys_._gtg_val.nbytes + q.nbytes + (
            sys_._u_q.nbytes
        )
        # G^T G for apply_h, and the parts of H it reads with their index
        # arrays
        walked += gtg.data.nbytes + gtg.indices.nbytes + gtg.indptr.nbytes
        walked += sum(
            kron.nbytes for kron in sys_._kron.values()
        ) + sys_._nn_w2.nbytes + sys_._nn.nbytes + sum(
            idx.nbytes for idx in sys_._kron_idx.values()
        ) + sys_._term_row.nbytes
        # a run's band, its gather index, and its members attaching
        # outside it with their attach rows and attach-block positions
        for run in stacked:
            walked += sum(a.nbytes for a in (
                run.band, run.gather, run.out, run.att, run.blocks,
            ))
        assert before == sys_.memory_bytes() == walked
        assert sys_.pattern_stats()["bytes"] == walked
        sys_.set_rank1(None)
        assert sys_.memory_bytes() == walked


def test_memory_counter_grows_linearly_in_blocks():
    # every size holds a run with links, so each doubling compares one
    # layout: a 20-vertex path has two groups and no run of several, and
    # the run that forms from three groups on adds its band and its
    # gather index at once
    sizes = [40, 80, 160]
    bytes_seen = []
    for n in sizes:
        problem, td = path_problem(n, m=2)
        ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=4)
        sys_.update(sigma, q, psd_w, nn_w2)
        stats = sys_.pattern_stats()
        assert stats["fill_blocks"] == 0
        assert stats["blocks"] == td.ell
        assert any(run.band is not None for run in sys_._runs)
        bytes_seen.append(stats["bytes"])
    for small, large in zip(bytes_seen, bytes_seen[1:]):
        assert 1.5 <= large / small <= 2.7


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


def test_dense_normal_system_counts_m_and_its_factor_once():
    rng = np.random.default_rng(59)
    dim_y, dim_x = 5, 9
    m = rng.standard_normal((dim_y, dim_x))
    sys_ = DenseNormalSystem(m)
    assert sys_.memory_bytes() == m.nbytes  # no factor before update
    sys_.update(lambda cols: cols)  # N = M M^T is positive definite
    assert sys_._factor.kind == "chol"
    assert sys_.memory_bytes() == m.nbytes + dim_y * dim_y * 8
    sys_.update(lambda cols: 0.0 * cols)  # N = 0 takes the eigen fallback
    assert sys_._factor.kind == "eig"
    assert sys_.memory_bytes() == m.nbytes + (dim_y + dim_y * dim_y) * 8


# ---------------------------------------------------------------------------
# non-finite input and the block-by-block reference engine
# ---------------------------------------------------------------------------


def test_factor_rejects_non_finite_offdiagonal_block():
    problem, td = path_problem(12, m=2)  # long enough for several groups
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=3)
    sys_.assemble_h(sigma, psd_w, nn_w2)
    # the assembled edge block of a child group, in the one buffer
    h_off = sys_._l_blocks[1]
    child = next(j for j, blk in enumerate(h_off) if blk is not None)
    h_off[child][0, 0] = np.nan
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


def test_reassembly_drops_the_previous_factor_and_rank1_term():
    # a factor and a rank-1 term belong to the H they were made for: after
    # a new assembly the solves refuse until factor runs, and then solve
    # with the new H only
    problem, td = path_problem(8, m=2)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=3)
    sys_.update(sigma, q, psd_w, nn_w2)
    rng = np.random.default_rng(5)
    sigma2, q2, psd_w2, nn_w22 = random_scaling_data(rng, ctc)
    sys_.assemble_h(sigma2, psd_w2, nn_w22)
    r = rng.standard_normal(ctc.dim_z)
    for solve in (sys_.solve_h, sys_.solve_with_rank1):
        with pytest.raises(StructureViolation):
            solve(r)
    assert sys_.q is None
    sys_.factor()
    h = h_dense(sys_)
    for solve in (sys_.solve_h, sys_.solve_with_rank1):
        x = solve(r)
        assert np.linalg.norm(h @ x - r) <= 1e-10 * np.linalg.norm(r)
    sys_.set_rank1(q2)
    x = sys_.solve_with_rank1(r)
    n2 = h + np.outer(q2, q2)
    assert np.linalg.norm(n2 @ x - r) <= 1e-10 * np.linalg.norm(r)


def test_apply_h_needs_an_assembled_h():
    # apply_h reads the parts of H that an assembly keeps, which exist
    # only once an assembly completes
    problem, td = path_problem(5, m=2)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=3)
    with pytest.raises(StructureViolation):
        sys_.apply_h(np.ones(sys_.dim))
    bad_w, bad_nn, _ = _misshapen_scaling_data(psd_w, nn_w2, 2)[0]
    with pytest.raises(DimensionMismatch):
        sys_.assemble_h(sigma, bad_w, bad_nn)
    with pytest.raises(StructureViolation):
        sys_.apply_h(np.ones(sys_.dim))


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
        problem = star_arrow_problem(30)  # sibling groups below the hub's
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        return problem, td, False
    if kind == "random-tree":
        problem, td = random_partially_separable_problem(
            rng, 14, 5, ineq_prob=0.3
        )
        return problem, td, False
    if kind == "spider":
        # MAXCUT on three 20-vertex legs from a hub: the legs' groups
        # share one shape but form three runs, each cut where the next
        # group holds an earlier member's attach bag; the root is a fourth
        edges = [(0 if i % 20 == 0 else i, i + 1) for i in range(60)]
        problem = gen_maxkcut(Graph(61, edges), 2)
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        return problem, td, False
    if kind == "branch":
        # MAXCUT on a 21-vertex path with a triangle on vertex 10, which is
        # eliminated first: with one bag per group, the path bag {10, 11}
        # takes the triangle's edge terms from an earlier run and its
        # predecessor {9, 10}'s from its own run with links
        edges = [(i, i + 1) for i in range(20)]
        edges += [(10, 21), (10, 22), (21, 22)]
        problem = gen_maxkcut(Graph(23, edges), 2)
        td = decompose(
            sparsity_graph(problem.n, problem.triplets), [21, 22, *range(21)]
        )
        return problem, td, False
    if kind == "power-flow":
        # the 3 x 30 power-flow grid under dctc-aux: one run with links of
        # one-bag groups whose band (kd = 30) is wider than a group (w = r
        # = 20)
        problem = power_flow_problem(3, 30)
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        return problem, td, True
    if kind == "theta-fan":
        # Lovasz theta on a 40-cycle: the minimum-degree order makes a fan
        # of bags on one vertex, one run with links of half bandwidth 10
        problem = gen_lovasz_theta(
            Graph(40, [(i, (i + 1) % 40) for i in range(40)])
        )
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        return problem, td, False
    if kind == "path-aux":
        # MAX 3-CUT on a 40-vertex path under dctc-aux: a chain of groups
        # with slacks, which factor and solve_h take as a run with links
        edges = [(i, i + 1) for i in range(39)]
        problem = gen_maxkcut(Graph(40, edges), 3)
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        return problem, td, True
    base, _ = random_partially_separable_problem(rng, 9, 3, ineq_prob=0.7)
    problem = with_wide_constraint(base)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    return problem, td, True


REFERENCE_KINDS = ["path", "star", "random-tree", "dctc-aux"]
RUN_KINDS = [*REFERENCE_KINDS, "spider", "path-aux"]


def assert_matches_reference(kind):
    """Build ``kind``'s engine and ReferenceTreeNormal, update both twice
    and check every block, band array and solve for equal bits.
    Returns the engine."""
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
        problem, td, with_aux=with_aux, seed=19
    )
    # edge blocks and the sweeps between groups are covered only when
    # the instance spans several groups under the engine's cap
    assert len(sys_.groups) >= 2
    assert any(slab is not None for slab in sys_._slabs)
    ref = ReferenceTreeNormal(sys_.dualized)
    sys_.update(sigma, q, psd_w, nn_w2)
    # a second iteration's data: the engine rewrites its buffers in place,
    # H over the previous L and then L over H
    sigma, q, psd_w, nn_w2 = random_scaling_data(
        np.random.default_rng(23), ctc
    )
    sys_.assemble_h(sigma, psd_w, nn_w2)
    h_diag, h_off = sys_._blocks(sys_._l_flat.copy())
    sys_.factor()
    sys_.set_rank1(q)
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
    assert same(h_diag, ref.h_diag) and same(h_off, ref.h_off)
    # L: the flat buffer's blocks outside the runs of several groups, and
    # each such run's band, against the reference's per group and its
    # bands gathered entry by entry
    bands = factor_bands(sys_)
    assert np.array_equal(
        _dense_blocks(sys_, sys_.l_diag, sys_.l_off, False, bands),
        _dense_blocks(sys_, ref.l_diag, ref.l_off, False,
                      ref.factor_bands()),
    )
    assert len(bands) == len(ref.factor_bands())
    for (rows, band), (ref_rows, ref_band) in zip(bands, ref.factor_bands()):
        assert rows == ref_rows and np.array_equal(band, ref_band)
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
    return sys_


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_engine_matches_reference_bit_for_bit(kind):
    sys_ = assert_matches_reference(kind)
    ctc = sys_.ctc
    if kind == "random-tree":
        assert len(set(ctc.width.tolist())) > 1
    if kind == "dctc-aux":
        assert ctc.n_aux.sum() > 0
        assert ctc.n_nn.any()
    # every run of several groups has a band
    stacked = sys_.pattern_stats()["stacked_groups"] > 0
    assert stacked == (kind in ("star", "spider", "path-aux"))
    assert any(run.band is not None for run in sys_._runs) == stacked


@pytest.mark.parametrize("kind", ["path", "spider", "path-aux", "branch"])
def test_engine_matches_reference_on_one_bag_groups(kind, monkeypatch):
    # with one bag per group a path is one run of links, and the spider's
    # legs share runs that mix links with members attaching outside the
    # run (a leg's top attaches to the hub); on the branch a member of a
    # run with links also takes edge terms from an earlier run, on the
    # same rows as its predecessor's, so apply_h's bits depend on a run
    # scattering its edge terms before its own rows take theirs
    monkeypatch.setattr(normal, "GROUP_WIDTH", 0)
    sys_ = assert_matches_reference(kind)
    chains = [run for run in sys_._runs if run.band is not None]
    outside = [run.out.size for run in chains]
    if kind == "spider":
        assert max(outside) > 1
        # a member attaching outside its run has a successor in the run
        assert any(run.out[0] < run.n - 1 for run in chains)
    elif kind == "branch":
        assert outside == [1, 1]
        up = sys_._attach_group.tolist()
        assert any(
            up[h] == run.k + i + 1
            for run in chains for i in range(run.n - 1)
            if up[run.k + i] == run.k + i + 1
            for h in range(run.k)
        )
    else:
        assert outside == [1]
        assert chains[0].out.tolist() == [chains[0].n - 1]


# runs with links whose members attach outside the run in its middle, whose
# band is wider than a group, and a theta fan; runs of siblings alone, with
# more attach rows than columns, and beside a run with links
BAND_CASES = [("spider", 0), ("power-flow", GROUP_WIDTH),
              ("theta-fan", GROUP_WIDTH), ("star", 0), ("dctc-aux", 0),
              ("power-flow", 0)]


@pytest.mark.parametrize("kind, cap", BAND_CASES)
def test_band_runs_match_the_dense_oracle_and_the_reference(
    kind, cap, monkeypatch
):
    # assemble_h, factor and solve_h give the reference's bits, band by
    # band, and solve_h inverts the dense oracle's H plus the static shift
    # to rounding
    monkeypatch.setattr(normal, "GROUP_WIDTH", cap)
    sys_ = assert_matches_reference(kind)
    bands = [run for run in sys_._runs if run.band is not None]
    kd = [run.band.shape[0] - 1 for run in bands]
    # (n, w, r) of the runs of siblings alone, whose members all attach
    # outside the run
    siblings = [(run.n, run.w, run.r) for run in bands
                if run.out.size == run.n]
    if kind == "spider":
        assert any(run.out[0] < run.n - 1 for run in bands)
    if kind == "power-flow":
        linked = [run for run in bands if run.out.size < run.n]
        (run,) = linked
        assert (run.n, run.w, run.r, run.band.shape[0] - 1) == (80, 20, 20, 30)
        assert siblings == ([(2, 10, 22)] if cap == 0 else [])
    if kind == "theta-fan":
        assert kd == [10] and bands[0].w == 30
    if kind == "star":
        assert siblings == [(29, 3, 3)]
    if kind == "dctc-aux":
        assert (3, 3, 16) in siblings and siblings == [
            (run.n, run.w, run.r) for run in bands
        ]
    ctc = sys_.ctc
    rng = np.random.default_rng(41)
    sigma, _, psd_w, nn_w2 = random_scaling_data(rng, ctc)
    sys_.assemble_h(sigma, psd_w, nn_w2)
    h = dense_h_oracle(ctc, sigma, psd_w, nn_w2)
    shift = normal.REGULARIZATION_REL * (1.0 + max(np.max(np.diag(h)), 0.0))
    sys_.factor()
    b = rng.standard_normal((ctc.dim_z, 3))
    x = sys_.solve_h(b)
    resid = b - h @ x - shift * x
    assert np.linalg.norm(resid) <= 1e-14 * (
        np.linalg.norm(h, 2) * np.linalg.norm(x) + np.linalg.norm(b)
    )


@pytest.mark.parametrize("cap", (0, GROUP_WIDTH))
@pytest.mark.parametrize("kind", [*RUN_KINDS, "branch", "power-flow",
                                  "theta-fan"])
def test_band_width_is_the_assembled_h_bandwidth(kind, cap, monkeypatch):
    # the half bandwidth each run of several reads off the static pattern
    # is the largest |i - j| over the nonzeros of its rows' square of the
    # assembled H, in the engine's order, and every such run has a band
    monkeypatch.setattr(normal, "GROUP_WIDTH", cap)
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, sigma, _, psd_w, nn_w2 = build_system(
        problem, td, with_aux=with_aux, seed=13
    )
    sys_.assemble_h(sigma, psd_w, nn_w2)
    h = h_dense(sys_)[np.ix_(sys_.perm, sys_.perm)]
    seen = 0
    for run in sys_._runs:
        if run.band is not None:
            i, j = np.nonzero(h[run.rows, run.rows])
            assert run.band.shape[0] - 1 == np.max(np.abs(i - j))
            seen += 1
    assert (seen > 0) == (sys_.pattern_stats()["stacked_groups"] > 0)


@pytest.mark.parametrize("kind", REFERENCE_KINDS)
def test_kron_run_views_alias_each_bag_block(kind):
    # each bag's slice of its run view is its Kronecker block in its
    # group's diagonal block, and no view reaches outside the flat buffer
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, *_ = build_system(problem, td, with_aux=with_aux)
    h_diag = sys_._l_blocks[0]
    flat_lo, flat_hi = byte_bounds(sys_._l_flat)
    lengths = set()
    for o, runs in sys_._kron_runs.items():
        bags = np.flatnonzero(ctc.order == o).tolist()
        t = tri(o)
        ends = [0] + [hi for _, hi, _ in runs]  # the runs tile the stack
        assert [lo for lo, _, _ in runs] == ends[:-1]
        assert ends[-1] == len(bags)
        for lo, hi, view in runs:
            lengths.add(hi - lo)
            view_lo, view_hi = byte_bounds(view)
            assert flat_lo <= view_lo and view_hi <= flat_hi
            # a run of several bags: equal widths, each block starting
            # where the one before it ends
            run = bags[lo:hi]
            assert len({int(ctc.width[j]) for j in run}) == 1
            for j, nxt in zip(run, run[1:]):
                assert sys_._bag_start[nxt] == (
                    sys_._bag_start[j] + ctc.width[j]
                )
            for i, j in enumerate(bags[lo:hi]):
                k = sys_._group_of[j]
                a = sys_._bag_start[j] - sys_.slices[k].start
                want, got = h_diag[k][a:a + t, a:a + t], view[i]
                assert got.ctypes.data == want.ctypes.data
                assert got.shape == want.shape
                assert got.strides == want.strides
    if kind in ("random-tree", "dctc-aux"):  # mixed orders and widths
        assert len(sys_._kron_runs) > 1
        assert 1 in lengths and max(lengths) > 1
    assert sys_._assemble_ops == sum(
        w ** 2 + tri(o) ** 2 * o
        for w, o in zip(ctc.width.tolist(), ctc.order.tolist())
    )


def same_view(got, want):
    return (
        got.ctypes.data == want.ctypes.data
        and got.shape == want.shape
        and got.strides == want.strides
    )


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_apply_h_matches_the_group_loop_on_any_layout_and_update(kind):
    # bit for bit against the reference's entry-by-entry and bag-by-bag
    # loops, on strided and transposed columns (the layout of
    # apply_mt(v.T).T, a transposed row batch), and after a second update:
    # apply_h reads the parts of the latest assembly
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, *first = build_system(problem, td, with_aux=with_aux, seed=19)
    ref = ReferenceTreeNormal(sys_.dualized)
    second = random_scaling_data(np.random.default_rng(23), ctc)
    rng = np.random.default_rng(71)
    dim = ctc.dim_z
    inputs = (
        rng.standard_normal(dim),
        rng.standard_normal((dim, 2))[:, 1],
        rng.standard_normal((1, dim)).T,
        rng.standard_normal((dim, 3)),
        rng.standard_normal((3, dim)).T,
    )
    assert not inputs[1].flags.c_contiguous
    assert not inputs[4].flags.c_contiguous
    seen = []
    for data in (first, second):
        sys_.update(*data)
        ref.update(*data)
        outs = []
        for rhs in inputs:
            got, want = sys_.apply_h(rhs), ref.apply_h(rhs)
            assert got.shape == want.shape == rhs.shape
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == sys_.apply_h(rhs.copy()).tobytes()
            outs.append(got)
        seen.append(outs)
    assert all(not np.array_equal(a, b) for a, b in zip(*seen))


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_sweep_plan_tiles_the_groups_in_maximal_independent_runs(kind):
    # factor and solve_h walk runs that tile the groups in
    # elimination order, each of one (width, attach rows) in which the
    # only member whose attach bag a group holds is its predecessor (a
    # link), and each ending only where the next group changes shape or
    # holds another member's attach bag; a run of one group is views of
    # its blocks, and a run of several, with links or without, is strided
    # views of its groups' edge blocks and holds its band in a buffer of
    # its own
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, *_ = build_system(problem, td, with_aux=with_aux)
    groups, parent = sys_.groups, td.parent.tolist()
    group_of = {j: k for k, g in enumerate(groups) for j in g}
    up = [group_of[parent[g[-1]]] for g in groups]  # root: itself
    shape = list(zip(sys_._width.tolist(), sys_._attach_rows.tolist()))
    plan = sys_._runs
    counts = [run.n for run in plan]
    assert [run.k for run in plan] == np.cumsum([0, *counts[:-1]]).tolist()
    assert sum(counts) == len(groups)
    assert [(run.k, run.n) for run in plan] == reference_sweep_runs(
        groups, parent, ctc.width.tolist()
    )
    for run, nxt in zip(plan, plan[1:] + [None]):
        members = range(run.k, run.k + run.n)
        assert {shape[g] for g in members} == {(run.w, run.r)}
        assert run.n == 1 or all(
            up[g] not in members or up[g] == g + 1 for g in members
        )
        if nxt is not None:  # maximal
            assert shape[nxt.k] != (run.w, run.r) or (
                nxt.k in {up[g] for g in members[:-1]}
            )
    linked = [
        sum(up[g] == g + 1 for g in range(run.k, run.k + run.n - 1))
        for run in plan
    ]
    if kind in ("path", "dctc-aux"):  # a group, then the root group
        assert set(counts) == {1}
    if kind in ("star", "spider"):
        assert max(counts) >= 2 and not any(linked)
    if kind == "path-aux":
        assert linked == [counts[0] - 1, 0] and counts[0] >= 3
    stats = sys_.pattern_stats()
    assert stats["sweep_steps"] == len(plan)
    assert stats["stacked_groups"] == sum(n for n in counts if n > 1)

    l_diag, l_off = sys_._l_blocks
    slabs = [
        None if s is None else np.arange(s.start, s.stop)
        for s in sys_._slabs
    ]
    # each group's attach bag's block of L, which its factor step updates
    attach_of = []
    for g in range(len(groups)):
        b, r = parent[groups[g][-1]], shape[g][1]
        at = sys_._bag_start[b] - sys_.slices[up[g]].start
        attach_of.append(l_diag[up[g]][at:at + r, at:at + r] if r else None)
    for run in plan:
        k, n, w, r = run.k, run.n, run.w, run.r
        members = range(k, k + n)
        # every run of several groups has a band
        assert (run.band is None) == (n == 1)
        if n == 1:
            assert run.gather is run.out is None
            if attach_of[k] is None:
                assert run.blocks is None
            else:
                assert same_view(run.blocks, attach_of[k])
            assert same_view(run.l_diag, l_diag[k])
            assert same_view(run.l_diag_t, l_diag[k].T)
            if l_off[k] is None:
                assert run.l_off is run.l_off_t is None
                continue
            assert same_view(run.l_off, l_off[k])
            assert same_view(run.l_off_t, l_off[k].T)
            continue
        assert run.l_off.shape == (n, r, w)
        for i, g in enumerate(members):
            assert same_view(run.l_off[i], l_off[g])
            assert same_view(run.l_off_t[i], l_off[g].T)
        # the members whose updates the run subtracts, and the flat
        # positions of their attach blocks, in order
        out = [i for i in range(n) if i == n - 1 or up[k + i] != k + i + 1]
        base = sys_._l_flat.ctypes.data
        assert np.array_equal(run.blocks, np.concatenate([
            (blk.ctypes.data - base) // 8 + np.add.outer(
                np.arange(r) * blk.strides[0] // 8, np.arange(r)
            ).ravel() for blk in (attach_of[k + i] for i in out)
        ]))
        # its band, and the members attaching outside it with their attach
        # rows
        assert run.l_diag is run.l_diag_t is None
        assert run.out.tolist() == out
        # the same members, picked by a slice where they are consecutive
        assert np.arange(n)[run.sel].tolist() == out
        consecutive = out == list(range(out[0], out[-1] + 1))
        assert isinstance(run.sel, slice) == consecutive
        assert np.array_equal(
            run.att, np.concatenate([slabs[k + i] for i in out])
        )
        assert run.band.shape == (run.band.shape[0], n * w)
        assert run.band.flags.f_contiguous and run.band.base.base is None
        assert run.gather.shape == run.band.T.shape


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_runs_span_their_groups_and_attach_rows(kind):
    # each run spans its groups' rows; a run of several scatters onto the
    # attach rows of its members that attach outside it, since its links'
    # rows lie in its band (without links, those of all its members)
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, *_ = build_system(problem, td, with_aux=with_aux)
    slabs = [
        None if s is None else np.arange(s.start, s.stop)
        for s in sys_._slabs
    ]
    plan = sys_._runs
    assert sum(run.n for run in plan) == len(sys_.groups)
    for run in plan:
        k, n = run.k, run.n
        assert run.rows == slice(
            sys_.slices[k].start, sys_.slices[k + n - 1].stop
        )
        if n == 1:
            assert run.att == sys_._slabs[k]
            continue
        assert np.array_equal(
            run.att, np.concatenate([slabs[k + i] for i in run.out])
        )
        rows = run.rows
        assert not ((run.att >= rows.start) & (run.att < rows.stop)).any()
    # the sweeps' two ordering hazards: siblings that share attach rows in
    # one stacked run (np.subtract.at takes a repeated row in sequence),
    # and a child whose attach bag lies in its own run
    stacked = [run for run in plan if run.n > 1]
    if kind == "star":
        assert any(np.unique(run.att).size < run.att.size for run in stacked)
    if kind == "star":
        assert [run.out.size for run in stacked] == [run.n for run in stacked]
    if kind == "path-aux":
        (run,) = stacked
        rows = run.rows
        inside = np.concatenate(
            [slabs[g] for g in range(run.k, run.k + run.n)]
        )
        assert ((inside >= rows.start) & (inside < rows.stop)).any()


@pytest.mark.parametrize("cap", (0, GROUP_WIDTH))
@pytest.mark.parametrize("kind", RUN_KINDS)
def test_apply_h_never_reads_the_factored_buffer(kind, cap, monkeypatch):
    # H and L share one buffer, so apply_h forms H x from H's parts: it
    # gives the same bits before factor, after it and after a factor that
    # failed, H times the identity is the assembled H to the last bit, and
    # a second factor of one assembly refuses, since the buffer holds L
    monkeypatch.setattr(normal, "GROUP_WIDTH", cap)
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(
        problem, td, with_aux=with_aux, seed=19
    )
    rng = np.random.default_rng(37)
    x = rng.standard_normal((ctc.dim_z, 3))
    sys_.update(sigma, q, psd_w, nn_w2)  # the buffer holds an old L
    # the first order-o bag's scaling is indefinite, o > 1
    o = min(o for o in psd_w if o > 1)
    bad = {k: w.copy() for k, w in psd_w.items()}
    bad[o][0][0, 0] = -50.0
    for w, fails in ((psd_w, False), (bad, True)):
        sys_.assemble_h(sigma, w, nn_w2)
        assembled = buffer_h_dense(sys_)
        assert same_bits(h_dense(sys_), assembled)
        before = sys_.apply_h(x)
        oracle = dense_h_oracle(ctc, sigma, w, nn_w2) @ x
        assert np.allclose(before, oracle, rtol=1e-13, atol=1e-13 * (
            np.abs(oracle).max()
        ))
        if fails:
            with pytest.raises(IndefinitePivot):
                sys_.factor()
        else:
            sys_.factor()
            assert not same_bits(buffer_h_dense(sys_), assembled)
        assert same_bits(sys_.apply_h(x), before)
        assert same_bits(h_dense(sys_), assembled)
        with pytest.raises(StructureViolation):
            sys_.factor()
        assert same_bits(sys_.apply_h(x), before)


@pytest.mark.parametrize("cap", (0, GROUP_WIDTH))
@pytest.mark.parametrize(
    "kind", ["star", "spider", "random-tree", "path", "dctc-aux", "path-aux"]
)
def test_solve_h_inverts_the_shifted_h_to_rounding(kind, cap, monkeypatch):
    # the runs of several groups solve with their band, with links or
    # without; after two updates, the residual against H plus factor's
    # static shift (H applied by apply_h) stays at rounding.  Against H
    # alone the shift leaves 1e-12 (1 + max diag) |x|, about 1e-11 |b|
    # here.
    monkeypatch.setattr(normal, "GROUP_WIDTH", cap)
    problem, td, with_aux = _reference_instance(kind)
    ctc, sys_, *first = build_system(problem, td, with_aux=with_aux, seed=19)
    assert sys_.pattern_stats()["stacked_groups"] > 0 or (
        kind in ("random-tree", "path", "dctc-aux") and cap == GROUP_WIDTH
    )
    assert any(run.band is not None for run in sys_._runs) == (
        sys_.pattern_stats()["stacked_groups"] > 0
    )
    sys_.update(*first)
    sys_.update(*random_scaling_data(np.random.default_rng(23), ctc))
    max_diag = float(np.max(np.diag(h_dense(sys_))))
    shift = normal.REGULARIZATION_REL * (1.0 + max(max_diag, 0.0))
    rng = np.random.default_rng(31)
    for b in (
        rng.standard_normal(ctc.dim_z),
        rng.standard_normal((ctc.dim_z, 3)),
    ):
        x = sys_.solve_h(b)
        resid = b - sys_.apply_h(x) - shift * x
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b)


def test_factor_solves_edge_blocks_in_place_in_l(monkeypatch):
    # a group swept alone solves its edge block in L's buffer, not in a
    # copy
    problem, td, _ = _reference_instance("path")
    ctc, sys_, sigma, _, psd_w, nn_w2 = build_system(problem, td)
    results, dtrtrs = [], normal.dtrtrs

    def recording(*args, **kwargs):
        out = dtrtrs(*args, **kwargs)
        results.append(out[0])
        return out

    monkeypatch.setattr(normal, "dtrtrs", recording)
    sys_.assemble_h(sigma, psd_w, nn_w2)
    sys_.factor()
    assert len(results) == sum(off is not None for off in sys_.l_off)
    assert all(np.shares_memory(r, sys_._l_flat) for r in results)


def test_indefinite_block_in_a_run_names_its_group(monkeypatch):
    # sigma = 0 leaves H block diagonal; the leaf groups' band fails by one
    # dpbtrf call on the leaf group whose bag is indefinite, and it is
    # named
    monkeypatch.setattr(normal, "GROUP_WIDTH", 0)
    problem, td, _ = _reference_instance("star")
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=9)
    (run,) = [run for run in sys_._runs if run.n > 1]
    for g in (run.k + 1, run.k + run.n // 2, run.k + run.n - 1):
        (j,) = sys_.groups[g]  # not the run's first
        o = int(ctc.order[j])
        bad = {key: w.copy() for key, w in psd_w.items()}
        bad[o][int(np.sum(ctc.order[:j] == o))][0, 0] = -50.0
        sys_.assemble_h(0.0, bad, nn_w2)
        with pytest.raises(IndefinitePivot) as err:
            sys_.factor()
        assert f"bags ({j + 1},) " in str(err.value)


def test_indefinite_block_in_a_run_with_links_names_its_group(monkeypatch):
    # a run with links factors its band by one dpbtrf: the first failed
    # pivot stops the factor, and its group is named
    monkeypatch.setattr(normal, "GROUP_WIDTH", 0)
    problem, td, _ = _reference_instance("path")
    ctc, sys_, sigma, q, psd_w, nn_w2 = build_system(problem, td, seed=9)
    (run,) = [run for run in sys_._runs if run.n > 1]
    assert run.band is not None
    for g in (run.k + 1, run.k + run.n // 2, run.k + run.n - 1):
        (j,) = sys_.groups[g]  # not the run's first
        bad = {key: w.copy() for key, w in psd_w.items()}
        bad[2][int(np.sum(ctc.order[:j] == 2))][0, 0] = -50.0
        sys_.assemble_h(0.0, bad, nn_w2)
        with pytest.raises(IndefinitePivot) as err:
            sys_.factor()
        assert f"bags ({j + 1},) " in str(err.value)


def engine_kron_runs(sys_):
    """The engine's runs as (first stack row, end stack row, byte offset
    into ``_l_flat``, shape, strides), by order."""
    base = sys_._l_flat.ctypes.data
    return {
        o: [
            (lo, hi, view.ctypes.data - base, view.shape, view.strides)
            for lo, hi, view in runs
        ]
        for o, runs in sys_._kron_runs.items()
    }


def test_kron_runs_and_factor_ops_match_the_bag_loops():
    # the array-built runs must be exactly the per-bag loop's, whose step
    # is set by each run's first two bags; the operation count the bench
    # reads as normal.factor_ops must be the per-group formula's
    rng = np.random.default_rng(61)
    instances = [_reference_instance(kind) for kind in RUN_KINDS]
    instances += [
        (*random_partially_separable_problem(rng, 14, 5, ineq_prob=0.3), False)
        for _ in range(300)
    ]
    n_runs = n_bags = 0
    for problem, td, with_aux in instances:
        _, sys_, *_ = build_system(problem, td, with_aux=with_aux)
        got = engine_kron_runs(sys_)
        assert list(got.items()) == list(loop_kron_runs(sys_).items())
        assert sys_._factor_ops == loop_factor_ops(sys_)
        n_runs += sum(len(runs) for runs in got.values())
        n_bags += td.ell
    assert n_runs < n_bags  # runs of several bags were formed


def shuffled_rows(rng, g):
    """A copy of the CSR matrix ``g`` with each row's entries in random
    order."""
    rows = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
    order = np.lexsort((rng.random(g.nnz), rows))
    return type(g)(
        (g.data[order], g.indices[order], g.indptr.copy()), shape=g.shape
    )


def with_duplicates(rng, g):
    """A copy of the CSR matrix ``g`` that stores some entries twice, next
    to each other."""
    rows = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
    take = np.repeat(np.arange(g.nnz), rng.integers(1, 3, g.nnz))
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(rows[take], minlength=g.shape[0])))
    )
    return type(g)((g.data[take], g.indices[take], indptr), shape=g.shape)


def test_row_bags_matches_unique_over_row_bag_keys():
    rng = np.random.default_rng(67)
    instances = [_reference_instance(kind) for kind in REFERENCE_KINDS]
    instances += [
        (*random_partially_separable_problem(rng, 14, 5, ineq_prob=0.3), False)
        for _ in range(20)
    ]
    unsorted = 0
    for problem, td, with_aux in instances:
        ctc, sys_, *_ = build_system(problem, td, with_aux=with_aux)
        g = sys_.dualized.g_csr
        bag_of = np.repeat(np.arange(td.ell), ctc.width)
        shuffled = shuffled_rows(rng, g)
        for variant in (
            g, shuffled, with_duplicates(rng, g),
            shuffled_rows(rng, with_duplicates(rng, g)),
        ):
            indices, data = variant.indices.copy(), variant.data.copy()
            unsorted += not variant.has_sorted_indices
            row, bag = row_bags(variant, bag_of)
            want_row, want_bag = unique_row_bags(variant, bag_of, td.ell)
            assert np.array_equal(row, want_row)
            assert np.array_equal(bag, want_bag)
            # read from a sorted copy, never reordered in place
            assert np.array_equal(variant.indices, indices)
            assert np.array_equal(variant.data, data)
        # apply_m and apply_mt sum each row of G in storage order, so the
        # engine must leave a shuffled G as it found it
        dual = dataclasses.replace(sys_.dualized, g_csr=shuffled)
        indices = shuffled.indices.copy()
        TreeNormalSystem(dual)
        assert np.array_equal(shuffled.indices, indices)
    assert unsorted > 0
