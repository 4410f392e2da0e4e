"""Splitter tests, backed by a brute-force set-cover oracle."""

from itertools import combinations

import numpy as np
import pytest

from treesdp.chordal import Graph, decompose
from treesdp.errors import UncoverableEntry
from treesdp.splitting import build_unique_partition, split
from util import (
    SparseSymmetric,
    cover_of,
    dot_sym,
    embedded_sum,
    is_partially_separable,
    random_chordal_problem,
    row_split,
    split_one,
    to_dense,
)


# ----------------------------------------------------------------- oracle
def brute_force_min_cover(mat, td):
    """Smallest number of bags covering all stored entries; None if some
    entry is uncoverable.  Exponential in the number of bags."""
    bag_sets = [set(b) for b in td.bags]
    entries = list(zip(mat.rows, mat.cols))
    feasible_bags = []
    for r, c in entries:
        holders = {j for j, bs in enumerate(bag_sets) if r in bs and c in bs}
        if not holders:
            return None
        feasible_bags.append(holders)
    for k in range(0, td.ell + 1):
        for subset in combinations(range(td.ell), k):
            chosen = set(subset)
            if all(h & chosen for h in feasible_bags):
                return k
    return td.ell


def random_instance(rng, n):
    """Random graph, its decomposition, and a matrix supported inside bags."""
    p = float(rng.uniform(0.15, 0.5))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    g = Graph(n, edges)
    td = decompose(g)
    n_entries = int(rng.integers(1, 3 * n))
    rows, cols, vals = [], [], []
    for _ in range(n_entries):
        bag = td.bags[int(rng.integers(0, td.ell))]
        u = bag[int(rng.integers(0, len(bag)))]
        v = bag[int(rng.integers(0, len(bag)))]
        rows.append(max(u, v))
        cols.append(min(u, v))
        vals.append(float(rng.standard_normal()))
    mat = SparseSymmetric(order=n, rows=rows, cols=cols, vals=vals)
    return g, td, mat


# ----------------------------------------------------------------- partition
def test_unique_partition_is_a_partition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 14))
        _, td, _ = random_instance(rng, n)
        part = build_unique_partition(td)
        # U_j = J_j minus the parent bag: each vertex is unique to its owner
        for j in range(td.ell):
            p = int(td.parent[j])
            shared = set(td.bags[p]) if p != j else set()
            for v in td.bags[j]:
                assert (part.owner[v] == j) == (v not in shared)
        assert np.all(part.owner >= 0)
        root = td.root
        assert td.depth[root] == 0
        for j in range(td.ell):
            p = int(td.parent[j])
            if p != j:
                assert td.depth[j] == td.depth[p] + 1


# ----------------------------------------------------------------- split
def test_split_reconstructs_exactly_and_probes():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(3, 13))
        _, td, mat = random_instance(rng, n)
        result = split_one(mat, td)
        dense = to_dense(mat, n)
        assert np.array_equal(embedded_sum(result, td, n), dense)
        # random inner-product probes
        for _ in range(100 // 15 + 1):
            x = rng.standard_normal((n, n))
            x = 0.5 * (x + x.T)
            total = 0.0
            for j in cover_of(result):
                sel = result.assignment == j
                piece = SparseSymmetric(
                    order=len(td.bags[j]),
                    rows=result.rows[sel],
                    cols=result.cols[sel],
                    vals=result.vals[sel],
                )
                total += dot_sym(piece, x[np.ix_(td.bags[j], td.bags[j])])
            ref = dot_sym(mat, x)
            assert abs(total - ref) <= 1e-12 * (1 + abs(ref))


def test_split_assigns_each_entry_once_to_first_selected_bag():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(3, 13))
        _, td, mat = random_instance(rng, n)
        result = split_one(mat, td)
        assert np.all(result.assignment >= 0)
        topo_pos = {j: k for k, j in enumerate(td.postorder())}
        bag_sets = [set(b) for b in td.bags]
        for e in range(mat.nnz):
            r, c = int(mat.rows[e]), int(mat.cols[e])
            holders = [
                j for j in cover_of(result)
                if r in bag_sets[j] and c in bag_sets[j]
            ]
            first = min(holders, key=lambda j: topo_pos[j])
            assert result.assignment[e] == first


def test_split_cover_is_minimum_cardinality():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        _, td, mat = random_instance(rng, n)
        if td.ell > 10:
            continue
        result = split_one(mat, td)
        assert len(cover_of(result)) == brute_force_min_cover(mat, td)


def test_stacked_split_matches_the_per_row_split():
    rng = np.random.default_rng(17)
    for _ in range(60):
        problem, td = random_chordal_problem(rng)
        pieces = split(problem.triplets, td)
        for i, mat in enumerate(problem.constraints + [problem.cost]):
            mine = pieces.ids == i
            want = row_split(mat, td)
            assert np.array_equal(pieces.assignment[mine], want.assignment)
            for j, piece in want.pieces.items():
                sel = mine & (pieces.assignment == j)
                assert np.array_equal(pieces.rows[sel], piece.rows)
                assert np.array_equal(pieces.cols[sel], piece.cols)
                assert np.array_equal(pieces.vals[sel], piece.vals)


def test_split_uncoverable_entry():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    td = decompose(g)
    mat = SparseSymmetric(order=4, rows=[3], cols=[0], vals=[1.0])
    with pytest.raises(UncoverableEntry) as err:
        split_one(mat, td)
    assert "(4, 1)" in str(err.value)


def test_split_claims_explicit_zeros():
    g = Graph(3, [(0, 1), (1, 2)])
    td = decompose(g)
    mat = SparseSymmetric(order=3, rows=[1, 1], cols=[0, 1], vals=[0.0, 2.0])
    result = split_one(mat, td)
    assert np.all(result.assignment >= 0)
    assert len(cover_of(result)) == 1  # both entries fit the bag {0, 1}... or {1,2}
    assert np.array_equal(embedded_sum(result, td, 3), to_dense(mat, 3))


# ----------------------------------------------------- partial separability
def test_is_partially_separable_cases():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    td = decompose(g)
    zero = SparseSymmetric(order=4, rows=[], cols=[], vals=[])
    assert is_partially_separable(zero, td)
    assert len(cover_of(split_one(zero, td))) == 0
    one_bag = SparseSymmetric(order=4, rows=[1], cols=[0], vals=[1.0])
    assert is_partially_separable(one_bag, td)
    two_bags = SparseSymmetric(
        order=4, rows=[1, 3], cols=[0, 2], vals=[1.0, 1.0]
    )
    assert not is_partially_separable(two_bags, td)
    uncov = SparseSymmetric(order=4, rows=[3], cols=[0], vals=[1.0])
    assert not is_partially_separable(uncov, td)