"""Undirected graphs, elimination orderings, and clique-tree decompositions.

The decomposition pipeline is: aggregate a sparsity pattern into a graph
(its sorted distinct positions already are the canonical edge list), play
the elimination game once in greedy minimum-degree order (or a given
one), recording one bag per vertex with elimination-tree parents, then
merge nested bags (supernodes) by comparing bag sizes alone, and build
one decomposition from the kept bags.  The result is a rooted tree of
index sets covering all vertices and edges and satisfying the
running-intersection property.  It owns its (bag, vertex) table, each
bag's separator included, and the same table read by vertex.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, ParseError
from .linalg import Triplets, sorted_lookup, sorted_unique


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple

    def __init__(self, n: int, edges):
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise DimensionMismatch(
                    f"edge ({u + 1}, {v + 1}) out of range for n={n}"
                )
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def parse_edge_list(text: str):
    """Parse the plain edge-list format: a header line ``n m`` followed by
    m lines ``u v [w]`` (1-based, weight default 1.0).  Blank lines and
    lines starting with ``#``, ``;`` or ``*`` are skipped.  Returns n and
    the 0-based ``(u, v, w)`` triples in file order."""
    header = None
    edges = []
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;*":
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header fields")
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative header fields")
            header = (n, m)
            continue
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v' or 'u v w'")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric edge fields")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {lineno}: vertex out of range [1, {n}]")
        edges.append((u - 1, v - 1, w))
    if header is None:
        raise ParseError("line 1: empty graph file")
    if len(edges) != m:
        raise ParseError(
            f"line {len(text.splitlines())}: header promised {m} edges, "
            f"found {len(edges)}"
        )
    return n, edges


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format (see :func:`parse_edge_list`), ignoring
    the weight column."""
    n, edges = parse_edge_list(text)
    return Graph(n=n, edges=[(u, v) for u, v, _ in edges])


def parse_permutation(text: str, n: int) -> list:
    """Parse a whitespace-separated 1-based permutation of 1..n."""
    try:
        vals = [int(tok) for tok in text.split()]
    except ValueError:
        raise ParseError("line 1: permutation file must contain integers")
    if sorted(vals) != list(range(1, n + 1)):
        raise ParseError(f"line 1: not a permutation of 1..{n}")
    return [v - 1 for v in vals]


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree of bags (index sets).  ``parent[j] == j`` exactly at the
    root; every bag is stored sorted ascending.

    The decomposition is immutable (``parent`` is a read-only array), so it
    owns the tables every layer walks: the tree's ``root``,
    ``postorder()``, ``post_index`` and ``depth``, and the (bag, vertex)
    table ``bag_start``, ``members``, ``bag_of`` and ``parent_pos``, which
    ``locate`` searches.  Each is computed on first use and kept (arrays
    read-only), so a tree that breaks the decomposition axioms still
    constructs."""

    n: int
    bags: list  # list of sorted tuples of vertex ids
    parent: np.ndarray

    def __post_init__(self):
        bags = [tuple(sorted(map(int, bag))) for bag in self.bags]
        parent = _frozen(np.array(self.parent, dtype=np.int64))
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "parent", parent)

    @property
    def ell(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1 if self.bags else -1

    @property
    def omega(self) -> int:
        """Largest bag size (clique number bound)."""
        return self.width + 1

    @cached_property
    def root(self) -> int:
        """The first bag that is its own parent (-1 if there is none)."""
        for j, p in enumerate(self.parent.tolist()):
            if p == j:
                return j
        return -1

    @cached_property
    def _postorder(self) -> np.ndarray:
        children = [[] for _ in range(self.ell)]
        for j, p in enumerate(self.parent.tolist()):
            if p != j:
                children[p].append(j)  # ascending, since j ascends
        order = []
        stack = [(self.root, False)] if self.ell else []
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            stack.append((node, True))
            for c in reversed(children[node]):
                stack.append((c, False))
        return _frozen(np.array(order, dtype=np.int64))

    def postorder(self) -> np.ndarray:
        """Deterministic postorder: children before parents, smallest child
        index first (iterative DFS from the root)."""
        return self._postorder

    @cached_property
    def post_index(self) -> np.ndarray:
        """Bag -> its position in :meth:`postorder`."""
        index = np.zeros(self.ell, dtype=np.int64)
        index[self._postorder] = np.arange(self._postorder.size)
        return _frozen(index)

    @cached_property
    def depth(self) -> np.ndarray:
        """Bag -> number of edges to the root (root = 0)."""
        depth = [0] * self.ell
        parent = self.parent.tolist()
        for j in self._postorder[::-1].tolist():  # parents before children
            p = parent[j]
            if p != j:
                depth[j] = depth[p] + 1
        return _frozen(np.array(depth, dtype=np.int64))

    # ---- the (bag, vertex) table: every bag's members, bag after bag ----
    @cached_property
    def bag_start(self) -> np.ndarray:
        """Bag -> offset of its run in ``members``; ell + 1 entries."""
        return _frozen(np.cumsum([0] + [len(bag) for bag in self.bags]))

    @cached_property
    def members(self) -> np.ndarray:
        """Every bag's sorted vertices, bag after bag."""
        return _frozen(np.fromiter(chain.from_iterable(self.bags), np.int64))

    @cached_property
    def bag_of(self) -> np.ndarray:
        """Entry of ``members`` -> its bag."""
        return _frozen(np.repeat(np.arange(self.ell), np.diff(self.bag_start)))

    @cached_property
    def vertex_start(self) -> np.ndarray:
        """Vertex -> offset of its run in ``vertex_bags``; n + 1 entries."""
        count = np.bincount(self.members, minlength=self.n)
        return _frozen(np.concatenate(([0], np.cumsum(count))))

    @cached_property
    def vertex_bags(self) -> np.ndarray:
        """The (bag, vertex) table read by vertex: every vertex's bags in
        ascending order, vertex after vertex."""
        return _frozen(self.bag_of[np.argsort(self.members, kind="stable")])

    @cached_property
    def _keys(self) -> np.ndarray:
        return self.bag_of * self.n + self.members  # ascending

    def locate(self, bags: np.ndarray, verts: np.ndarray):
        """Positions of the (bag, vertex) pairs in ``members`` and whether
        each vertex is a member of its bag."""
        return sorted_lookup(self._keys, bags * self.n + verts)

    @cached_property
    def parent_pos(self) -> np.ndarray:
        """Entry of ``members`` -> position of its vertex in the parent
        bag, or -1 at the root and where the parent lacks the vertex.  The
        entries at or above 0 are the bag's separator."""
        parent = self.parent[self.bag_of]
        pos, shared = self.locate(parent, self.members)
        pos -= self.bag_start[parent]
        pos[~shared | (parent == self.bag_of)] = -1
        return _frozen(pos)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def format_decomposition(td: TreeDecomposition) -> str:
    """One line per bag: ``j p(j) |J_j| : members`` (all 1-based)."""
    lines = []
    for j, bag in enumerate(td.bags):
        members = " ".join(str(v + 1) for v in bag)
        lines.append(f"{j + 1} {int(td.parent[j]) + 1} {len(bag)} : {members}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------


def sparsity_graph(n: int, stack: Triplets) -> Graph:
    """Aggregate sparsity pattern of a stack of order-n matrices in lower
    storage (``SdpProblem.triplets``): one edge per stored off-diagonal
    position.

    Stored entries count as structural even when their value is zero.  The
    sorted unique keys already are ``Graph``'s canonical edges, so they
    skip its per-edge checks."""
    off = stack.rows != stack.cols
    edges = sorted_unique(stack.cols[off] * n + stack.rows[off])
    lo, hi = np.divmod(edges, n)
    graph = object.__new__(Graph)
    object.__setattr__(graph, "n", int(n))
    object.__setattr__(graph, "edges", tuple(zip(lo.tolist(), hi.tolist())))
    return graph


def eliminate(graph: Graph, order: list | None = None) -> TreeDecomposition:
    """Play the elimination game once, in ``order`` or else in greedy
    minimum-degree order (ties to the smallest vertex id), recording bag k
    as the k-th eliminated vertex plus its later neighbors in the filled
    graph.  The min-degree heap, keyed on (degree, id), holds an entry for
    every degree a vertex has had; a stale entry is skipped when it
    surfaces.

    Bag k's parent is the bag of its earliest-eliminated later neighbor.
    The roots of an elimination forest hang from the last bag, itself a
    root, so the result is a single tree."""
    bags, parent = _eliminate(graph, order)
    return TreeDecomposition(n=graph.n, bags=bags, parent=parent)


def _eliminate(graph: Graph, order: list | None) -> tuple:
    """The raw bags of :func:`eliminate`, each its eliminated vertex
    followed by its later neighbors in ascending order, and their parents
    as a list."""
    n = graph.n
    if order is not None and sorted(order) != list(range(n)):
        raise DimensionMismatch("elimination order is not a permutation")
    adj = graph.adjacency()
    heap = None
    if order is None:
        heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
        heapq.heapify(heap)
    pos = [-1] * n  # vertex -> elimination position
    bags, later, count = [], [], []
    while len(bags) < n:
        if heap is None:
            v = order[len(bags)]
        else:
            degree, v = heapq.heappop(heap)
            if pos[v] >= 0 or degree != len(adj[v]):
                continue
        pos[v] = len(bags)
        nbrs = sorted(adj[v])
        bags.append((v, *nbrs))
        later += nbrs
        count.append(len(nbrs))
        for u in nbrs:
            adj[u].discard(v)
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
        if heap is not None:
            for u in nbrs:
                heapq.heappush(heap, (len(adj[u]), u))

    count = np.asarray(count, dtype=np.int64)
    parent = np.full(n, n - 1, dtype=np.int64)
    has = count > 0
    parent[has] = np.minimum.reduceat(
        np.asarray(pos)[later], (np.cumsum(count) - count)[has]
    )
    return bags, parent.tolist()


def _merge_supernodes(sizes: list, parent: list) -> tuple:
    """Merge nested bags of an elimination tree, given only the bags'
    sizes: returns the kept bags, ascending, and each one's parent as a
    position among them.

    A bag minus its own vertex lies inside its parent's bag, and its own
    vertex lies in no later bag.  So a child is never a subset of its
    parent, and the parent is a subset of the child exactly when it is
    one vertex smaller; the child then takes the parent's place in the
    tree.  A child that absorbed its parent has two own vertices, so it
    takes in its next parent only when that one's size equals the
    absorbed parent's minus one: ``inner[j]``, the size of bag j less its
    own vertices, carries that count.  Bags are visited in index order,
    sweep after sweep, until a sweep merges none; parent pointers of the
    absorbed bags are followed to the bag that absorbed them."""
    inner = [size - 1 for size in sizes]
    alive = [True] * len(sizes)

    def find(j):
        while not alive[j]:
            j = parent[j]
        return j

    changed = True
    while changed:
        changed = False
        for j, p in enumerate(parent):
            if not alive[j] or p == j:
                continue
            if not alive[p]:
                p = parent[j] = find(p)
            if p == j or sizes[p] != inner[j]:
                continue
            # the parent is absorbed into the child, which takes its place
            gp = parent[p]
            gp = find(gp) if gp != p else p
            alive[p] = False
            parent[p] = j
            parent[j] = j if gp == p else gp
            inner[j] = inner[p]
            changed = True
    keep = [j for j, live in enumerate(alive) if live]
    index = [0] * len(sizes)
    for i, j in enumerate(keep):
        index[j] = i
    return keep, [index[find(parent[j])] for j in keep]


def decompose(graph: Graph, order: list | None = None) -> TreeDecomposition:
    """Full pipeline: one elimination pass (min-degree order unless one is
    supplied), then the supernode merge on the raw bags' sizes, and one
    decomposition built from the kept bags."""
    bags, parent = _eliminate(graph, order)
    keep, parent = _merge_supernodes(list(map(len, bags)), parent)
    return TreeDecomposition(
        n=graph.n, bags=[bags[j] for j in keep], parent=parent
    )
