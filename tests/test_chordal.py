"""Tests for graph handling, elimination ordering, and clique trees."""

import numpy as np
import pytest

from treesdp.chordal import (
    Graph,
    TreeDecomposition,
    decompose,
    eliminate,
    format_decomposition,
    parse_graph,
    parse_permutation,
    sparsity_graph,
    supernode_merge,
)
from treesdp.errors import DimensionMismatch, ParseError
from util import (
    SparseSymmetric,
    ancestors,
    make_problem,
    min_degree_order_reference,
    random_rooted_tree,
    separator,
    symbolic_factor,
    validate,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n):  # hub is the LAST vertex
    return Graph(n, [(i, n - 1) for i in range(n - 1)])


def random_graph(rng, n, p):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_tree(rng, n):
    return Graph(n, [(int(rng.integers(0, i)), i) for i in range(1, n)])


def random_graph_in_parts(rng, n, p, parts):
    """Random graph with no edge between its ``parts`` vertex sets; the
    vertices are dealt to the sets at random."""
    part = rng.integers(0, parts, n)
    edge = np.triu(rng.random((n, n)) < p, 1) & (part[:, None] == part)
    return Graph(n, zip(*np.nonzero(edge)))


def same_tree(got, want):
    return got.bags == want.bags and list(got.parent) == list(want.parent)


# ----------------------------------------------------------------- graphs
def test_graph_canonicalizes():
    g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.m == 2


def test_graph_rejects_out_of_range():
    with pytest.raises(DimensionMismatch):
        Graph(3, [(0, 5)])


def test_parse_graph_accepts_weights_and_comments():
    text = "# a comment\n3 2\n1 2 1.5\n\n2 3\n"
    g = parse_graph(text)
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("3\n1 2\n", "header"),
        ("3 2\n1 2\n", "promised 2 edges"),
        ("3 1\n1 9\n", "out of range"),
        ("3 1\nx y\n", "non-numeric"),
    ],
)
def test_parse_graph_errors_carry_line_info(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_permutation():
    assert parse_permutation("3 1 2", 3) == [2, 0, 1]
    with pytest.raises(ParseError):
        parse_permutation("1 1 2", 3)


# ----------------------------------------------------------------- sparsity graph
def test_sparsity_graph_counts_explicit_zeros():
    cost = SparseSymmetric(order=3, rows=[1], cols=[0], vals=[0.0])
    con = SparseSymmetric(order=3, rows=[2], cols=[2], vals=[1.0])
    sdp = make_problem(cost, [con], [1.0])
    g = sparsity_graph(sdp.n, sdp.triplets)
    assert g.edges == ((0, 1),)  # explicit zero edge present, diagonal ignored


# ----------------------------------------------------------------- ordering
# bag k of ``eliminate`` is the k-th eliminated vertex and its later
# neighbors, so the bags show the order
def test_min_degree_is_deterministic_with_smallest_id_ties():
    g = star_graph(6)  # hub = 5, all leaves degree 1
    assert eliminate(g).bags == [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5,)]
    g2 = path_graph(3)
    # after vertex 0 leaves, vertices 1 and 2 tie at degree 1 -> smallest id
    assert eliminate(g2).bags == [(0, 1), (1, 2), (2,)]


def test_min_degree_is_a_permutation_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, 0.3)
        # the last bag holding each vertex is the one that eliminates it
        last = {v: k for k, bag in enumerate(eliminate(g).bags) for v in bag}
        assert sorted(last.values()) == list(range(n))


def test_min_degree_matches_the_scan_over_live_vertices():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.5)))
        want = symbolic_factor(g, min_degree_order_reference(g))
        assert same_tree(eliminate(g), want)
    star = star_graph(30)  # leaves tie at degree 1, the hub comes last
    want = symbolic_factor(star, min_degree_order_reference(star))
    assert same_tree(eliminate(star), want)


def test_one_elimination_pass_matches_the_two_pass_oracle():
    # min-degree and random given orders on random, edgeless, two-part
    # and empty graphs: bags and parents equal the oracle's, before and
    # after the supernode merge
    rng = np.random.default_rng(17)
    seen = set()
    for trial in range(2000):
        n = int(rng.integers(0, 40))
        kind = ("random", "edgeless", "two parts")[trial % 3]
        p = 0.0 if kind == "edgeless" else rng.uniform(0.02, 0.3)
        g = random_graph_in_parts(rng, n, p, 2 if kind == "two parts" else 1)
        for order in (None, rng.permutation(n).tolist()):
            want = symbolic_factor(g, order)
            assert same_tree(eliminate(g, order), want)
            assert same_tree(decompose(g, order), supernode_merge(want))
        seen.add(kind if n else "empty")
    assert seen == {"random", "edgeless", "two parts", "empty"}


# ----------------------------------------------------------------- symbolic factor
def test_symbolic_factor_path_natural_order():
    td = eliminate(path_graph(3), order=[0, 1, 2])
    assert td.bags == [(0, 1), (1, 2), (2,)]
    assert list(td.parent) == [1, 2, 2]
    assert validate(td, path_graph(3)) == []


def test_symbolic_factor_edgeless_single_root():
    g = Graph(4, [])
    td = eliminate(g, order=[0, 1, 2, 3])
    assert td.bags == [(0,), (1,), (2,), (3,)]
    assert list(td.parent) == [3, 3, 3, 3]
    assert validate(td, g) == []


def test_symbolic_factor_rejects_non_permutation():
    with pytest.raises(DimensionMismatch):
        eliminate(path_graph(3), order=[0, 0, 2])


def test_symbolic_factor_validates_on_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        td = eliminate(g)
        assert validate(td, g) == []


# ----------------------------------------------------------------- supernodes
def test_supernode_merge_complete_graph_single_bag():
    td = decompose(complete_graph(4))
    assert td.ell == 1
    assert td.bags == [(0, 1, 2, 3)]
    assert td.width == 3


def test_supernode_merge_is_idempotent_and_width_preserving():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, 0.25)
        td = eliminate(g)
        merged = supernode_merge(td)
        assert merged.width == td.width
        again = supernode_merge(merged)
        assert again.bags == merged.bags
        assert list(again.parent) == list(merged.parent)
        assert validate(merged, g) == []
        assert merged.ell <= n


def test_edgeless_merges_to_singletons_under_one_root():
    g = Graph(5, [])
    td = decompose(g)
    assert td.ell == 5
    assert all(len(b) == 1 for b in td.bags)
    assert sum(1 for j in range(td.ell) if td.parent[j] == j) == 1
    assert validate(td, g) == []


def test_width_is_n_minus_1_iff_complete():
    for n in (2, 3, 4, 5):
        assert decompose(complete_graph(n)).width == n - 1
    near = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)][:-1])
    assert decompose(near).width < 3


def test_trees_have_width_one():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        g = random_tree(rng, n)
        td = decompose(g)
        assert td.width == 1
        assert validate(td, g) == []


def test_star_decomposition_is_star_shaped_tree():
    n = 12
    td = decompose(star_graph(n))
    assert td.ell == n - 1
    assert all(len(b) == 2 and b[1] == n - 1 for b in td.bags)
    root = td.root
    assert all(
        int(td.parent[j]) == root for j in range(td.ell) if j != root
    )
    assert all(separator(td, j) == (n - 1,) for j in range(td.ell) if j != root)


# ----------------------------------------------------------------- helpers
def test_postorder_children_before_parents():
    rng = np.random.default_rng(27)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 25)), 0.3)
        td = decompose(g)
        pos = {j: k for k, j in enumerate(td.postorder())}
        assert len(pos) == td.ell
        for j in range(td.ell):
            p = int(td.parent[j])
            if p != j:
                assert pos[j] < pos[p]


def test_tree_tables_match_walks_up_the_parents():
    rng = np.random.default_rng(41)
    for _ in range(20):
        td = random_rooted_tree(rng, int(rng.integers(1, 40)))
        up = [ancestors(td, j) for j in range(td.ell)]
        assert td.root == up[0][-1]
        assert list(td.depth) == [len(path) - 1 for path in up]
        post, index = td.postorder(), td.post_index
        assert sorted(post) == list(range(td.ell))
        assert [post[index[j]] for j in range(td.ell)] == list(range(td.ell))
        for j in range(td.ell):
            # each subtree is the contiguous run that ends at its root
            subtree = {k for k in range(td.ell) if j in up[k]}
            run = post[index[j] - len(subtree) + 1:index[j] + 1]
            assert set(run) == subtree
            # siblings come smallest index first
            for k in range(j + 1, td.ell):
                if len(up[j]) > 1 and len(up[k]) > 1 and up[j][1] == up[k][1]:
                    assert index[j] < index[k]
        # computed once: the tables cannot go stale under a changed parent
        assert td.postorder() is post
        with pytest.raises(ValueError):
            td.parent[0] = 0


def test_bag_table_matches_a_walk_over_each_bag():
    # unmerged elimination trees keep bags nested in their parents; random
    # rooted trees with random bags put parents at any index
    rng = np.random.default_rng(43)
    tds = []
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(0, 30)), rng.uniform(0.05, 0.5))
        tds += [eliminate(g), decompose(g)]
        tree = random_rooted_tree(rng, int(rng.integers(1, 20)))
        n = int(rng.integers(1, 12))
        bags = [
            rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
            for _ in range(tree.ell)
        ]
        tds.append(TreeDecomposition(n=n, bags=bags, parent=tree.parent))
    nested = 0
    for td in tds:
        sizes = [len(bag) for bag in td.bags]
        assert td.bag_start.tolist() == np.cumsum([0] + sizes).tolist()
        assert td.members.size == td.bag_of.size == sum(sizes)
        for j, bag in enumerate(td.bags):
            run = slice(td.bag_start[j], td.bag_start[j + 1])
            assert tuple(td.members[run].tolist()) == bag
            assert (td.bag_of[run] == j).all()
            pos = td.parent_pos[run].tolist()
            shared = separator(td, j)
            assert tuple(v for v, k in zip(bag, pos) if k >= 0) == shared
            parent_bag = td.bags[td.parent[j]]
            assert all(parent_bag[k] == v for v, k in zip(bag, pos) if k >= 0)
            nested += td.parent[j] != j and len(shared) == len(bag)
        for table in (td.bag_start, td.members, td.bag_of, td.parent_pos):
            assert not table.flags.writeable
    assert nested > 0


def test_validate_flags_broken_decompositions():
    # vertex 2 appears in two disconnected bags -> running intersection fails
    td = TreeDecomposition(
        n=3, bags=[(0, 2), (1,), (2,)], parent=np.array([1, 1, 1])
    )
    assert any("subtrees" in msg for msg in validate(td))
    # missing vertex
    td2 = TreeDecomposition(n=3, bags=[(0, 1)], parent=np.array([0]))
    assert any("not covered" in msg for msg in validate(td2))
    # uncovered edge
    td3 = TreeDecomposition(
        n=3, bags=[(0, 1), (1, 2)], parent=np.array([1, 1])
    )
    assert any("edge" in msg for msg in validate(td3, Graph(3, [(0, 2)])))
    # two roots
    td4 = TreeDecomposition(
        n=2, bags=[(0,), (1,)], parent=np.array([0, 1])
    )
    assert any("root" in msg for msg in validate(td4))


def test_format_decomposition_is_one_based():
    td = eliminate(path_graph(3), order=[0, 1, 2])
    text = format_decomposition(td)
    assert text.splitlines() == ["1 2 2 : 1 2", "2 3 2 : 2 3", "3 3 1 : 3"]


def test_decompose_with_supplied_permutation():
    g = path_graph(4)
    td_natural = decompose(g, order=[0, 1, 2, 3])
    assert td_natural.width == 1
    td_bad = decompose(g, order=[1, 2, 0, 3])  # eliminating middle first fills
    assert td_bad.width >= td_natural.width