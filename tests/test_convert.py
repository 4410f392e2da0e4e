"""Converter tests: cone bookkeeping, row wiring, auxiliary separation,
and dualization."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import treesdp.convert
from treesdp.chordal import (
    Graph, TreeDecomposition, decompose, sparsity_graph
)
from treesdp.convert import (
    ConeSpec,
    DualizedProblem,
    build_ctc,
    dualize,
    separate_with_aux,
    steiner_closure,
    validate_support_tree,
    verify_split,
)
from treesdp.errors import (
    DimensionMismatch, DisconnectedSupport, InvalidSplit, UncoverableEntry
)
from treesdp.frontends import gen_maxkcut
from treesdp.linalg import tri
from treesdp.normal import row_bags
from treesdp.splitting import split
from util import (
    SparseSymmetric,
    ancestors,
    bags_of_rows,
    consistent_block_vector,
    dot_sym,
    make_problem,
    power_flow_problem,
    random_chordal_problem,
    random_partially_separable_problem,
    random_rooted_tree,
    row_assemble,
    same_bits,
    separator,
    stack_triplets,
    star_arrow_problem,
)


# ----------------------------------------------------------------- ConeSpec
def test_cone_spec_dims_and_nu():
    cone = ConeSpec(4, [3, 2], [1, 0], [0, 2])
    assert cone.dim == 4 + tri(3) + 1 + tri(2) + 2
    assert cone.nu() == 1 + 3 + 2 + 2
    assert cone.block_start.tolist() == [4, 4 + tri(3) + 1]
    assert ConeSpec(0, [3], [0], [0]).nu() == 3  # no second-order cone
    for sizes in (cone.order, cone.n_free, cone.n_nn):
        assert sizes.dtype == np.int64


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, [3, 2], [0], [0, 0]), "differ in length"),
        ((0, [3], [0], [0, 1]), "differ in length"),
        ((0, [3], [[0]], [0]), "differ in length"),
        ((0, 3, 0, 0), "differ in length"),
        ((-1, [3], [0], [0]), "negative cone size"),
        ((0, [-3], [0], [0]), "negative cone size"),
        ((0, [3], [-1], [0]), "negative cone size"),
        ((0, [3], [0], [-1]), "negative cone size"),
    ],
)
def test_cone_spec_rejects_mismatched_or_negative_sizes(args, message):
    with pytest.raises(DimensionMismatch, match=message):
        ConeSpec(*args)


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
        if ctc.n_rows.shape[0]:
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
        tri(len(separator(td, j))) for j in range(td.ell) if td.parent[j] != j
    )
    assert ctc.n_rows.shape[0] == expected
    # every overlap row touches exactly a (parent, child) pair
    for kinds in bags_of_rows(ctc)[ctc.a_rows.shape[0]:]:
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
        for kinds in bags_of_rows(ctc)[ctc.a_rows.shape[0]:]:
            pair = (max(kinds), min(kinds))
            assert pair in edges
            seen.add(pair)
        # nonempty separators on connected graphs: every edge appears
        nonempty = {
            (max(int(td.parent[j]), j), min(int(td.parent[j]), j))
            for j in range(td.ell)
            if td.parent[j] != j and separator(td, j)
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
    slacks = record_of(ctc, False).slack_coord
    assert set(slacks) == {i for i, s in enumerate(problem.senses) if s != "eq"}
    z, x_dense = consistent_block_vector(rng, ctc)
    for i, coord in slacks.items():
        sense = problem.senses[i]
        margin = dot_sym(problem.constraints[i], x_dense) - problem.b[i]
        z2 = z.copy()
        z2[coord] = margin if sense == "ge" else -margin
        val = (ctc.a_rows @ z2)[ctc.dual_row_of_constraint[i]]
        assert abs(val - problem.b[i]) <= 1e-10 * (1 + abs(problem.b[i]))
        # slack lives in a block's orthant segment
        assert np.any(
            (ctc.nn_start <= coord) & (coord < ctc.nn_start + ctc.n_nn)
        )


def split_stack(mat, td):
    """The one-matrix stack of ``mat`` and its split."""
    stack = stack_triplets([mat])
    return stack, split(stack, td)


def test_verify_split_raises_on_corruption():
    rng = np.random.default_rng(89)
    problem, td = random_partially_separable_problem(rng, 6, 1)
    stack, res = split_stack(problem.cost, td)
    j0 = res.assignment.min()
    bad = replace(
        res, vals=np.where(res.assignment == j0, res.vals + 1.0, res.vals)
    )
    with pytest.raises(InvalidSplit):
        verify_split(stack, bad, td)


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
    stack, pieces = split_stack(mat, td)
    verify_split(stack, pieces, td)
    vals = pieces.vals.copy()
    vals[np.flatnonzero(pieces.rows != pieces.cols)[0]] += 1e-7
    with pytest.raises(InvalidSplit):
        verify_split(stack, replace(pieces, vals=vals), td)


def test_verify_split_rejects_entries_outside_the_pattern():
    n = 5
    mat = SparseSymmetric(
        order=n, rows=list(range(n)), cols=list(range(n)), vals=[1.0] * n
    )
    td = decompose(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    stack, pieces = split_stack(mat, td)
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
        verify_split(stack, extra, td)


# ------------------------------------------------------- per-row oracle
def assert_same_conversion(got, want):
    for name in ("a_rows", "n_rows"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
            assert getattr(a, part).dtype == getattr(b, part).dtype
    for name in (
        "c_z", "g_rhs", "dual_row_of_constraint",
        "order", "svec_start", "n_aux", "n_nn",
    ):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype


def record_of(ctc, with_aux):
    """The per-row oracle's record of a conversion, checked to be of the
    same conversion."""
    want, record = row_assemble(ctc.problem, ctc.td, with_aux)
    assert_same_conversion(ctc, want)
    return record


def bags_read_off_g(ctc):
    """Per row of G, the tuple of its bags as the normal engine's structure
    check reads them off G's pattern."""
    g = ctc.g_matrix()
    row, bag = row_bags(g, np.repeat(np.arange(ctc.td.ell), ctc.width))
    per_row = np.split(bag, np.searchsorted(row, np.arange(1, g.shape[0])))
    return [tuple(b.tolist()) for b in per_row]


@pytest.mark.parametrize("with_aux", [False, True])
def test_conversion_matches_the_per_row_oracle(with_aux):
    rng = np.random.default_rng(211)
    convert = separate_with_aux if with_aux else build_ctc
    wide = aux_rows = 0
    for _ in range(120):
        problem, td = random_chordal_problem(rng)
        got = convert(problem, td)
        want, record = row_assemble(problem, td, with_aux)
        assert_same_conversion(got, want)
        # an empty inequality's slack sits in the root block
        root = td.root
        for i, a in enumerate(problem.constraints):
            if a.rows.size == 0 and problem.senses[i] != "eq":
                coord = record.slack_coord[i]
                lo = got.nn_start[root]
                assert lo <= coord < lo + got.n_nn[root]
        wide += sum(len(kinds) > 1 for kinds in record.block_of_row[: problem.m])
        if with_aux:
            aux_rows += sum(kind[0] == "aux" for kind in record.row_kind)
    # the instances exercise multi-bag rows and aux chains
    assert (aux_rows if with_aux else wide) > 50
    # power-flow rows: each bus's row covers its closed neighbourhood,
    # which spans several bags
    wide = 0
    for width, length in ((2, 3), (3, 7), (4, 6)):
        problem = power_flow_problem(width, length)
        td = decompose(sparsity_graph(problem.n, problem.triplets))
        want, record = row_assemble(problem, td, with_aux)
        assert_same_conversion(convert(problem, td), want)
        wide += sum(len(kinds) > 2 for kinds in record.block_of_row)
    assert wide == 0 if with_aux else wide > 10


@pytest.mark.parametrize("with_aux", [False, True])
def test_bags_read_off_g_match_the_per_row_record(with_aux):
    # the instances of test_conversion_matches_the_per_row_oracle: the bags
    # the structure check reads off each row of G are the bags the per-row
    # oracle wrote that row for
    rng = np.random.default_rng(211)
    convert = separate_with_aux if with_aux else build_ctc
    rows = wide = 0
    for _ in range(120):
        problem, td = random_chordal_problem(rng)
        got = convert(problem, td)
        record = record_of(got, with_aux)
        assert bags_read_off_g(got) == record.block_of_row
        assert bags_of_rows(got) == record.block_of_row
        rows += len(record.block_of_row)
        wide += sum(len(kinds) > 2 for kinds in record.block_of_row)
    # rows of more than two bags occur only without aux chains
    assert rows > 2000 and (wide == 0 if with_aux else wide > 50)


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
            want, _ = row_assemble(bad, td, False)
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
        want, _ = row_assemble(problem, decompose(graph), False)
        assert_same_conversion(build_ctc(problem), want)


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


def test_support_trees_are_built_only_for_multi_bag_rows(monkeypatch):
    # MAX 3-CUT on a path under dctc-aux, the bench's path-max3cut-aux
    # shape, has no row over several bags: its conversion calls neither
    # support-tree function.  The power-flow grid's rows span several
    # bags, and its conversion calls each once.
    calls = []
    for name in ("steiner_closure", "validate_support_tree"):
        real = getattr(treesdp.convert, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(treesdp.convert, name, counted)
    path = gen_maxkcut(Graph(40, [(i, i + 1) for i in range(39)]), 3)
    assert path.senses.count("ge") == 39
    assert separate_with_aux(path).n_aux.sum() == 0 and calls == []
    assert separate_with_aux(power_flow_problem(3, 8)).n_aux.sum() > 0
    assert calls == ["steiner_closure", "validate_support_tree"]


def test_aux_rows_touch_tree_adjacent_blocks_only():
    problem = path_maxcut_like(8)
    ctc = separate_with_aux(problem)
    td = ctc.td
    for kinds in bags_of_rows(ctc):
        assert len(kinds) <= 2
        if len(kinds) == 2:
            p, c = max(kinds), min(kinds)
            assert int(td.parent[c]) == p or int(td.parent[p]) == c
    chains = record_of(ctc, True).aux_chains
    assert len(chains) == 1
    aux = chains[0]
    assert len(aux.aux_coord) == len(aux.members) - 1
    # aux scalars live in the parent block's free segment
    for j, coord in aux.aux_coord.items():
        p = int(td.parent[j])
        assert ctc.aux_start[p] <= coord < ctc.aux_start[p] + ctc.n_aux[p]


def test_aux_elimination_reproduces_plain_rows_exactly():
    rng = np.random.default_rng(97)
    problem = path_maxcut_like(9)
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    plain = build_ctc(problem, td=td)
    auxed = separate_with_aux(problem, td=td)
    for aux in record_of(auxed, True).aux_chains:
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
        for o, lo_a, lo_p in zip(
            auxed.order.tolist(), auxed.svec_start.tolist(),
            plain.svec_start.tolist(),
        ):
            sa = summed[lo_a:lo_a + tri(o)]
            sp_ = plain_row[lo_p:lo_p + tri(o)]
            assert np.array_equal(sa, sp_)
        # rhs: b_i on the root row, zero elsewhere
        group_rhs = auxed.g_rhs[start:end]
        assert np.sum(group_rhs != 0.0) <= 1
        assert group_rhs.sum() == problem.b[i]


def test_support_tree_validation():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    td = decompose(g)
    leafs = np.array([0, td.ell - 1])
    one_row = np.zeros(2, dtype=np.int64)
    # two far-apart bags are not connected without the closure
    if int(td.parent[leafs[0]]) not in leafs:
        with pytest.raises(DisconnectedSupport):
            validate_support_tree(td, one_row, leafs)
    row, closed = steiner_closure(td, one_row, leafs)
    root = validate_support_tree(td, row, closed)
    assert root.size == 1 and set(leafs.tolist()) <= set(closed.tolist())


def test_support_tree_validation_names_a_disconnected_row_among_others():
    # three rows on the path 0 - 1 - 2 - 3 rooted at 3: the middle row
    # {0, 2} misses bag 1 and falls apart into two subtrees
    td = TreeDecomposition(
        n=4, bags=[(0,), (1,), (2,), (3,)], parent=[1, 2, 3, 3]
    )
    row = np.array([0, 0, 4, 4, 7])
    bag = np.array([0, 1, 0, 2, 3])
    with pytest.raises(DisconnectedSupport, match="spans 2 disconnected"):
        validate_support_tree(td, row, bag)
    bag[3] = 1
    assert validate_support_tree(td, row, bag).tolist() == [1, 3, 4]


def test_steiner_closure_is_the_union_of_paths_to_the_lca():
    # several rows of random bags at once (repeats allowed, row ids with
    # gaps): each row's closure is the union of its bags' paths up to
    # their lowest common ancestor, listed in postorder, and its root is
    # that ancestor
    rng = np.random.default_rng(43)
    for _ in range(40):
        td = random_rooted_tree(rng, int(rng.integers(1, 30)))
        rows, bags, want, lcas = [], [], {}, []
        for r in range(int(rng.integers(1, 6))):
            picked = [
                int(j)
                for j in rng.integers(0, td.ell, size=rng.integers(1, 6))
            ]
            up = {j: ancestors(td, j) for j in picked}
            common = set.intersection(*(set(path) for path in up.values()))
            lca = max(common, key=lambda a: len(ancestors(td, a)))
            members = set()
            for path in up.values():
                members.update(path[:path.index(lca) + 1])
            want[3 * r] = sorted(members, key=td.post_index.__getitem__)
            lcas.append(lca)
            rows += [3 * r] * len(picked)
            bags += picked
        row, closed = steiner_closure(td, np.array(rows), np.array(bags))
        got = {r: closed[row == r].tolist() for r in np.unique(row).tolist()}
        assert got == want
        assert row.tolist() == sorted(row.tolist())
        assert closed[validate_support_tree(td, row, closed)].tolist() == lcas


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
    aux = record_of(ctc, True).aux_chains[0]
    assert aux.index == 0 and len(aux.members) > 1
    # the support tree stays inside the bags holding the center
    assert all(0 in td.bags[j] for j in aux.members)
    start, end = aux.row_range
    for kinds in bags_of_rows(ctc)[start:end]:
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
    gamma = ctc.n_aux.tolist()
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
    assert dp.f == ctc.a_rows.shape[0] + ctc.n_rows.shape[0]
    assert dp.cone_x.soc == 1 + dp.f
    assert not dp.cone_x.n_free.any()
    assert np.array_equal(dp.cone_x.order, ctc.order)
    assert np.array_equal(dp.cone_x.n_nn, ctc.n_nn)
    assert dp.cone_x.dim == dp.dim_x
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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 12), st.floats(0.2, 1.0),
    st.integers(0, 2 ** 32 - 1),
)
def test_stored_g_transpose_gives_the_same_bits(f, d, density, seed):
    # G with several entries per column, both signs, scales 1e-8..1e8
    # and explicit zeros; apply_m and the q of normal_update multiply by
    # the stored CSR G^T in place of the CSC view g_csr.T
    rng = np.random.default_rng(seed)
    mask = rng.random((f, d)) < density
    vals = rng.standard_normal((f, d)) * 10.0 ** rng.integers(-8, 9, (f, d))
    vals[rng.random((f, d)) < 0.2] = 0.0
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    g = sp.csr_matrix(
        (vals[mask], np.nonzero(mask)[1], indptr), shape=(f, d)
    )
    assert g.nnz == mask.sum()  # the zeros stay stored
    dp = DualizedProblem(
        ctc=None, g_csr=g, nonaux=np.zeros(0, dtype=np.int64), cone_x=None
    )
    x = rng.standard_normal((3, 1 + f))
    for rows in (x[0], x[:1], x):
        x1 = rows[..., 1:]
        assert same_bits(dp.apply_m(rows), -(g.T @ x1.T).T)
    for scale in (1.0, 1e-8, 1e8):
        q = np.sqrt(2.0) * scale * x[0, 1:]
        assert same_bits(dp.gt_csr @ q, g.T.dot(q))


def test_dualize_aux_skips_free_coordinates():
    problem = path_maxcut_like(7)
    ctc = separate_with_aux(problem)
    dp = dualize(ctc)
    n_aux = int(ctc.n_aux.sum())
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
    assert ctc.n_rows.shape[0] == n - 1  # one shared hub entry per non-root bag