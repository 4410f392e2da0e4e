"""Converter tests: cone bookkeeping, row wiring, auxiliary separation,
and dualization."""

import re
from dataclasses import replace

import numpy as np
import pytest

from treesdp.chordal import Graph, decompose, sparsity_graph
from treesdp.convert import (
    ConeSpec,
    build_ctc,
    dualize,
    separate_with_aux,
    steiner_closure,
    validate_support_tree,
    verify_split,
)
from treesdp.errors import DisconnectedSupport, InvalidSplit, UncoverableEntry
from treesdp.linalg import svec, tri
from treesdp.splitting import build_unique_partition, split
from util import (
    SparseSymmetric,
    ancestors,
    consistent_block_vector,
    dot_sym,
    make_problem,
    random_chordal_problem,
    random_partially_separable_problem,
    random_rooted_tree,
    row_assemble,
    stack_triplets,
    star_arrow_problem,
)


# ----------------------------------------------------------------- ConeSpec
def test_cone_spec_dims_and_nu():
    cone = ConeSpec(segments=(("soc", 4), ("psd", 3), ("nonneg", 2), ("free", 1)))
    assert cone.dim == 4 + tri(3) + 2 + 1
    assert cone.nu() == 1 + 3 + 2
    assert cone.has_free


# ----------------------------------------------------------------- build_ctc
def test_ctc_rows_evaluate_constraints_on_consistent_vectors():
    rng = np.random.default_rng(61)
    for trial in range(10):
        n = int(rng.integers(4, 15))
        m = int(rng.integers(1, 6))
        problem, td = random_partially_separable_problem(rng, n, m)
        ctc = build_ctc(problem)
        z, x_dense = consistent_block_vector(rng, ctc)
        # overlap rows vanish exactly on consistent vectors
        if ctc.n_overlap:
            assert np.max(np.abs(ctc.n_rows @ z)) == 0.0
        # constraint rows reproduce <A_i, X>
        vals = ctc.a_rows @ z
        for i, a in enumerate(problem.constraints):
            ref = dot_sym(a, x_dense)
            assert abs(vals[i] - ref) <= 1e-12 * (1 + abs(ref))
        # cost vector reproduces <C, X>
        ref_c = dot_sym(problem.cost, x_dense)
        assert abs(ctc.c_z @ z - ref_c) <= 1e-12 * (1 + abs(ref_c))


def test_ctc_overlap_count_and_root_free():
    rng = np.random.default_rng(67)
    problem, td = random_partially_separable_problem(rng, 10, 3)
    ctc = build_ctc(problem, td=td)
    expected = sum(
        tri(len(td.separator(j))) for j in range(td.ell) if td.parent[j] != j
    )
    assert ctc.n_overlap == expected
    # every overlap row touches exactly a (parent, child) pair
    for kinds in ctc.block_of_row[ctc.a_rows.shape[0]:]:
        assert len(kinds) == 2
        p, c = max(kinds), min(kinds)
        assert int(td.parent[c]) == p or int(td.parent[p]) == c


def test_ctc_overlap_block_pattern_is_tree_adjacency():
    rng = np.random.default_rng(71)
    for _ in range(8):
        n = int(rng.integers(5, 16))
        problem, td = random_partially_separable_problem(rng, n, 2)
        ctc = build_ctc(problem, td=td)
        edges = {
            (max(int(td.parent[j]), j), min(int(td.parent[j]), j))
            for j in range(td.ell)
            if td.parent[j] != j
        }
        seen = set()
        for kinds in ctc.block_of_row[ctc.a_rows.shape[0]:]:
            pair = (max(kinds), min(kinds))
            assert pair in edges
            seen.add(pair)
        # nonempty separators on connected graphs: every edge appears
        nonempty = {
            (max(int(td.parent[j]), j), min(int(td.parent[j]), j))
            for j in range(td.ell)
            if td.parent[j] != j and td.separator(j)
        }
        assert seen == nonempty


def test_ctc_full_row_rank_iff_original_full_rank():
    rng = np.random.default_rng(73)
    for _ in range(8):
        n = int(rng.integers(4, 10))
        m = int(rng.integers(1, 5))
        problem, _ = random_partially_separable_problem(rng, n, m)
        ctc = build_ctc(problem)
        g = np.vstack([ctc.a_rows.toarray(), ctc.n_rows.toarray()])
        rank_g = np.linalg.matrix_rank(g, tol=1e-9)
        stacked = problem.stacked_rows().toarray()
        rank_orig = np.linalg.matrix_rank(stacked, tol=1e-9)
        assert (rank_g == g.shape[0]) == (rank_orig == m)


def test_ctc_duplicate_constraint_drops_rank():
    rng = np.random.default_rng(79)
    problem, _ = random_partially_separable_problem(rng, 8, 2)
    dup = make_problem(
        problem.cost,
        problem.constraints + [problem.constraints[0]],
        np.concatenate([problem.b, problem.b[:1]]),
        n=problem.n,
    )
    ctc = build_ctc(dup)
    g = np.vstack([ctc.a_rows.toarray(), ctc.n_rows.toarray()])
    assert np.linalg.matrix_rank(g, tol=1e-9) < g.shape[0]


def test_inequality_slack_wiring():
    rng = np.random.default_rng(83)
    problem, td = random_partially_separable_problem(rng, 8, 4, ineq_prob=1.0)
    ctc = build_ctc(problem)
    slacks = ctc.slack_coord
    assert set(slacks) == {i for i, s in enumerate(problem.senses) if s != "eq"}
    z, x_dense = consistent_block_vector(rng, ctc)
    for i, coord in slacks.items():
        sense = problem.senses[i]
        margin = dot_sym(problem.constraints[i], x_dense) - problem.b[i]
        z2 = z.copy()
        z2[coord] = margin if sense == "ge" else -margin
        val = (ctc.a_rows @ z2)[ctc.dual_row_of_constraint[i]]
        assert abs(val - problem.b[i]) <= 1e-10 * (1 + abs(problem.b[i]))
        # slack lives in the owning block's orthant segment
        blk = next(
            b for b in ctc.blocks if b.nn_start <= coord < b.nn_start + b.n_nn
        )
        assert blk is not None


def split_with_table(mat, td):
    """The one-matrix stack of ``mat``, its split and the partition the
    split searched."""
    stack = stack_triplets([mat])
    partition = build_unique_partition(td)
    return stack, split(stack, td, partition), partition


def test_verify_split_raises_on_corruption():
    rng = np.random.default_rng(89)
    problem, td = random_partially_separable_problem(rng, 6, 1)
    stack, res, partition = split_with_table(problem.cost, td)
    j0 = res.assignment.min()
    bad = replace(
        res, vals=np.where(res.assignment == j0, res.vals + 1.0, res.vals)
    )
    with pytest.raises(InvalidSplit):
        verify_split(stack, bad, partition)


def test_verify_split_rejects_a_small_error_beside_a_large_diagonal():
    # P_40 with diagonal 1e6 and unit off-diagonals: one off-diagonal piece
    # entry off by 1e-7 is an error of 1e-7 relative to its entry, far
    # below what an inner product with the whole matrix can resolve
    n = 40
    mat = SparseSymmetric(
        order=n,
        rows=list(range(n)) + list(range(1, n)),
        cols=list(range(n)) + list(range(n - 1)),
        vals=[1e6] * n + [1.0] * (n - 1),
    )
    td = decompose(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    stack, pieces, partition = split_with_table(mat, td)
    verify_split(stack, pieces, partition)
    vals = pieces.vals.copy()
    vals[np.flatnonzero(pieces.rows != pieces.cols)[0]] += 1e-7
    with pytest.raises(InvalidSplit):
        verify_split(stack, replace(pieces, vals=vals), partition)


def test_verify_split_rejects_entries_outside_the_pattern():
    n = 5
    mat = SparseSymmetric(
        order=n, rows=list(range(n)), cols=list(range(n)), vals=[1.0] * n
    )
    td = decompose(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    stack, pieces, partition = split_with_table(mat, td)
    # a zero-valued entry the matrix does not store changes no sum, so only
    # the pattern check can see it
    extra = replace(
        pieces,
        ids=np.append(pieces.ids, 0),
        assignment=np.append(pieces.assignment, pieces.assignment[0]),
        rows=np.append(pieces.rows, 1),
        cols=np.append(pieces.cols, 0),
        vals=np.append(pieces.vals, 0.0),
    )
    with pytest.raises(InvalidSplit, match="does not"):
        verify_split(stack, extra, partition)


# ------------------------------------------------------- per-row oracle
def assert_same_conversion(got, want):
    for name in ("a_rows", "n_rows"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
            assert getattr(a, part).dtype == getattr(b, part).dtype
    for name in ("c_z", "g_rhs", "dual_row_of_constraint"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
        assert getattr(got, name).dtype == getattr(want, name).dtype
    for name in (
        "blocks", "cone", "row_kind", "block_of_row", "slack_coord",
        "aux_plan",
    ):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("with_aux", [False, True])
def test_conversion_matches_the_per_row_oracle(with_aux):
    rng = np.random.default_rng(211)
    convert = separate_with_aux if with_aux else build_ctc
    wide = aux_rows = 0
    for _ in range(120):
        problem, td = random_chordal_problem(rng)
        got = convert(problem, td)
        assert_same_conversion(got, row_assemble(problem, td, with_aux))
        # an empty inequality's slack sits in the root block
        for i, a in enumerate(problem.constraints):
            if a.rows.size == 0 and problem.senses[i] != "eq":
                blk = got.blocks[td.root]
                coord = got.slack_coord[i]
                assert blk.nn_start <= coord < blk.nn_start + blk.n_nn
        wide += sum(len(kinds) > 1 for kinds in got.block_of_row[: problem.m])
        if with_aux:
            aux_rows += sum(kind[0] == "aux" for kind in got.row_kind)
    # the instances exercise multi-bag rows and aux chains
    assert (aux_rows if with_aux else wide) > 50


def test_uncoverable_entry_names_the_oracles_entry():
    rng = np.random.default_rng(223)
    raised = 0
    for _ in range(150):
        problem, td = random_chordal_problem(rng)
        n = problem.n
        # entries at random positions, some in no bag, in random matrices
        mats = [problem.cost] + problem.constraints
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(0, len(mats)))
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            a = mats[k]
            mats[k] = SparseSymmetric(
                n,
                np.append(a.rows, max(u, v)),
                np.append(a.cols, min(u, v)),
                np.append(a.vals, 1.0),
            )
        bad = make_problem(mats[0], mats[1:], problem.b, problem.senses, n)
        try:
            want = row_assemble(bad, td, False)
        except UncoverableEntry as err:
            with pytest.raises(UncoverableEntry) as got:
                build_ctc(bad, td)
            assert str(got.value) == str(err)
            raised += 1
        else:
            assert_same_conversion(build_ctc(bad, td), want)
    assert raised > 30


@pytest.mark.parametrize(
    "cost_entry, named", [(None, "(3, 1)"), ((2, 0), "(3, 1)"), ((3, 0), "(4, 1)")]
)
def test_uncoverable_entry_of_the_cost_is_named_first(cost_entry, named):
    # path 0-1-2-3: the entries (2, 0) and (3, 0) lie in no bag
    td = decompose(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    def mat(*entries):
        rows, cols = zip(*entries) if entries else ((), ())
        return SparseSymmetric(4, list(rows), list(cols), [1.0] * len(rows))

    cost = mat(*([cost_entry] if cost_entry else []))
    # an all-zero C leaves A_1's entry the first uncoverable one
    problem = make_problem(
        cost, [mat((1, 0)), mat((2, 0)), mat((3, 0))], np.zeros(3)
    )
    with pytest.raises(UncoverableEntry, match=re.escape(named)):
        build_ctc(problem, td)
    with pytest.raises(UncoverableEntry, match=re.escape(named)):
        row_assemble(problem, td, False)


def test_build_ctc_decomposes_the_stacked_pattern():
    rng = np.random.default_rng(227)
    for _ in range(20):
        problem, _ = random_chordal_problem(rng)
        graph = sparsity_graph(problem.n, problem.triplets)
        assert_same_conversion(
            build_ctc(problem), row_assemble(problem, decompose(graph), False)
        )


# ----------------------------------------------------------------- aux rows
def path_maxcut_like(n_vertices):
    """Equality SDP whose single dense-support row spans the whole path."""
    n = n_vertices
    cost = SparseSymmetric(
        order=n, rows=np.arange(n), cols=np.arange(n), vals=np.ones(n)
    )
    # one constraint with entries on every path edge -> support = all bags
    rows = np.arange(1, n)
    cols = np.arange(0, n - 1)
    spanning = SparseSymmetric(order=n, rows=rows, cols=cols, vals=np.ones(n - 1))
    diag = SparseSymmetric(order=n, rows=[0], cols=[0], vals=[1.0])
    return make_problem(cost, [spanning, diag], np.array([1.0, 1.0]))


def test_aux_rows_touch_tree_adjacent_blocks_only():
    problem = path_maxcut_like(8)
    ctc = separate_with_aux(problem)
    td = ctc.td
    for kinds, kind in zip(ctc.block_of_row, ctc.row_kind):
        assert len(kinds) <= 2
        if len(kinds) == 2:
            p, c = max(kinds), min(kinds)
            assert int(td.parent[c]) == p or int(td.parent[p]) == c
    plan = ctc.aux_plan
    assert plan is not None and len(plan.constraints) == 1
    aux = plan.constraints[0]
    assert len(aux.aux_coord) == len(aux.members) - 1
    # aux scalars live in the parent block's free segment
    for j, coord in aux.aux_coord.items():
        p = int(td.parent[j])
        blk = ctc.blocks[p]
        assert blk.aux_start <= coord < blk.aux_start + blk.n_aux


def test_aux_elimination_reproduces_plain_rows_exactly():
    rng = np.random.default_rng(97)
    problem = path_maxcut_like(9)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    plain = build_ctc(problem, td=td)
    auxed = separate_with_aux(problem, td=td)
    for aux in auxed.aux_plan.constraints:
        i = aux.index
        start, end = aux.row_range
        summed = np.asarray(
            auxed.a_rows[start:end].sum(axis=0)
        ).ravel()
        # aux coordinates telescope to exactly zero
        for coord in aux.aux_coord.values():
            assert summed[coord] == 0.0
        # svec coefficients agree block by block with the plain conversion
        plain_row = np.asarray(
            plain.a_rows[plain.dual_row_of_constraint[i]].todense()
        ).ravel()
        for j, (blk_a, blk_p) in enumerate(zip(auxed.blocks, plain.blocks)):
            sa = summed[blk_a.svec_start:blk_a.svec_start + blk_a.svec_len]
            sp_ = plain_row[blk_p.svec_start:blk_p.svec_start + blk_p.svec_len]
            assert np.array_equal(sa, sp_)
        # rhs: b_i on the root row, zero elsewhere
        group_rhs = auxed.g_rhs[start:end]
        assert np.sum(group_rhs != 0.0) <= 1
        assert group_rhs.sum() == problem.b[i]


def test_support_tree_validation():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    td = decompose(g)
    with pytest.raises(DisconnectedSupport):
        validate_support_tree(td, [])
    # two far-apart bags are not connected without the closure
    leafs = [0, td.ell - 1]
    if int(td.parent[leafs[0]]) not in leafs:
        with pytest.raises(DisconnectedSupport):
            validate_support_tree(td, leafs)
    closed = steiner_closure(td, leafs)
    root_w = validate_support_tree(td, closed)
    assert root_w in closed


def test_steiner_closure_is_the_union_of_paths_to_the_lca():
    rng = np.random.default_rng(43)
    for _ in range(40):
        td = random_rooted_tree(rng, int(rng.integers(1, 30)))
        bags = [
            int(j) for j in rng.integers(0, td.ell, size=rng.integers(1, 6))
        ]
        up = {j: ancestors(td, j) for j in bags}
        common = set.intersection(*(set(path) for path in up.values()))
        lca = max(common, key=lambda a: len(ancestors(td, a)))
        want = set()
        for path in up.values():
            want.update(path[:path.index(lca) + 1])
        closed = steiner_closure(td, bags)
        assert len(closed) == len(want) and set(closed) == want
        depths = [len(ancestors(td, j)) for j in closed]
        assert depths == sorted(depths)  # root-first
        assert validate_support_tree(td, closed) == lca


def test_flow_rows_through_aux_elimination():
    # flow-form row (diagonal at center 0 plus entries incident to it)
    # spanning several bags, split by the generic splitter
    mat = SparseSymmetric(
        order=5,
        rows=[0, 1, 2, 3, 4],
        cols=[0, 0, 0, 0, 0],
        vals=[1.0, 0.5, -0.5, 2.0, 1.5],
    )
    diag = SparseSymmetric(order=5, rows=[1], cols=[1], vals=[1.0])
    problem = make_problem(
        SparseSymmetric(
            order=5, rows=np.arange(5), cols=np.arange(5), vals=np.ones(5)
        ),
        [mat, diag],
        np.array([1.0, 1.0]),
    )
    ctc = separate_with_aux(problem)
    td = ctc.td
    aux = ctc.aux_plan.constraints[0]
    assert aux.index == 0 and len(aux.members) > 1
    # the support tree stays inside the bags holding the center
    assert all(0 in td.bags[j] for j in aux.members)
    start, end = aux.row_range
    for kinds in ctc.block_of_row[start:end]:
        assert len(kinds) <= 2
        if len(kinds) == 2:
            p, c = max(kinds), min(kinds)
            assert int(td.parent[c]) == p or int(td.parent[p]) == c
    # sum of the aux group rows evaluates to <A, X> on consistent vectors
    rng = np.random.default_rng(101)
    z, x_dense = consistent_block_vector(rng, ctc)
    val = float(np.asarray(ctc.a_rows[start:end] @ z).sum())
    ref = dot_sym(mat, x_dense)
    assert abs(val - ref) <= 1e-12 * (1 + abs(ref))
    gamma = [blk.n_aux for blk in ctc.blocks]
    d_max = max(
        sum(1 for j in range(td.ell) if int(td.parent[j]) == p) + 1
        for p in range(td.ell)
    )
    assert max(gamma) <= 1 * td.omega * d_max  # single flow constraint


# ----------------------------------------------------------------- dualize
def test_dualize_shapes_and_adjoint():
    rng = np.random.default_rng(103)
    problem, _ = random_partially_separable_problem(rng, 9, 3, ineq_prob=0.4)
    ctc = build_ctc(problem)
    dp = dualize(ctc)
    assert dp.dim_x == 1 + dp.f + dp.k2
    assert dp.f == ctc.a_rows.shape[0] + ctc.n_overlap
    assert dp.cone_x.segments[0] == ("soc", 1 + dp.f)
    assert not dp.cone_x.has_free
    assert dp.b_t is ctc.c_z
    ct = dp.c_t()
    assert ct[0] == 0.0 and np.allclose(ct[1:1 + dp.f], ctc.g_rhs)
    assert np.all(ct[1 + dp.f:] == 0.0)
    for _ in range(5):
        x = rng.standard_normal(dp.dim_x)
        y = rng.standard_normal(dp.dim_y)
        lhs = float(dp.apply_m(x) @ y)
        rhs = float(x @ dp.apply_mt(y))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
    xs = rng.standard_normal((3, dp.dim_x))
    ys = rng.standard_normal((3, dp.dim_y))
    assert np.allclose(dp.apply_m(xs)[1], dp.apply_m(xs[1]), atol=1e-12)
    assert np.allclose(dp.apply_mt(ys)[2], dp.apply_mt(ys[2]), atol=1e-12)


def test_dualize_aux_skips_free_coordinates():
    problem = path_maxcut_like(7)
    ctc = separate_with_aux(problem)
    dp = dualize(ctc)
    n_aux = sum(blk.n_aux for blk in ctc.blocks)
    assert n_aux > 0
    assert dp.k2 == ctc.dim_z - n_aux
    # E~ scatters K2 into non-aux coordinates only
    x = np.zeros(dp.dim_x)
    x[1 + dp.f:] = 1.0
    out = dp.apply_m(x)
    aux_coords = set(range(ctc.dim_z)) - set(dp.nonaux.tolist())
    assert all(out[c] == 0.0 for c in aux_coords)
    assert all(out[c] == 1.0 for c in dp.nonaux)


def test_star_arrow_structure():
    n = 12
    problem = star_arrow_problem(n)
    ctc = build_ctc(problem)
    td = ctc.td
    assert td.ell == n
    root = td.root
    assert all(int(td.parent[j]) == root for j in range(td.ell) if j != root)
    assert ctc.n_overlap == n - 1  # one shared hub entry per non-root bag