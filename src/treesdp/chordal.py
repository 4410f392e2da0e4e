"""Undirected graphs, elimination orderings, and clique-tree decompositions.

The decomposition pipeline is: aggregate a sparsity pattern into a graph,
play the elimination game once in greedy minimum-degree order (or a given
one), recording one bag per vertex with elimination-tree parents, then merge
nested bags (supernodes).  The result is a rooted tree of index sets
covering all vertices and edges and satisfying the running-intersection
property.  It owns its (bag, vertex) table, each bag's separator included.
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
        stack = [(self.root, False)]
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

    Stored entries count as structural even when their value is zero."""
    off = stack.rows != stack.cols
    edges = sorted_unique(stack.cols[off] * n + stack.rows[off])
    lo, hi = np.divmod(edges, n)
    return Graph(n=n, edges=zip(lo.tolist(), hi.tolist()))


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
    return TreeDecomposition(n=n, bags=bags, parent=parent)


def supernode_merge(td: TreeDecomposition) -> TreeDecomposition:
    """Merge nested bags: a bag that is a subset of its parent is absorbed
    into the parent, and a parent that is a subset of a child is absorbed
    into that child.  Repeats to a fixpoint; idempotent; width unchanged."""
    bags = [set(b) for b in td.bags]
    parent = [int(p) for p in td.parent]
    alive = [True] * len(bags)

    def find(j):
        while not alive[j]:
            j = parent[j]
        return j

    changed = True
    while changed:
        changed = False
        for j in range(len(bags)):
            if not alive[j]:
                continue
            p = find(parent[j]) if parent[j] != j else j
            parent[j] = p
            if p == j:
                continue
            if bags[j] <= bags[p]:
                # child absorbed into parent
                alive[j] = False
                parent[j] = p
                changed = True
            elif bags[p] <= bags[j]:
                # parent absorbed into child: child takes the parent's place
                bags[j] |= bags[p]
                gp = find(parent[p]) if parent[p] != p else p
                alive[p] = False
                parent[p] = j
                parent[j] = j if gp == p else gp
                changed = True
    keep = [j for j in range(len(bags)) if alive[j]]
    index = {j: i for i, j in enumerate(keep)}
    new_bags = [tuple(sorted(bags[j])) for j in keep]
    new_parent = np.zeros(len(keep), dtype=np.int64)
    for i, j in enumerate(keep):
        p = parent[j]
        if p != j:
            p = find(p)
        new_parent[i] = index[p]
    return TreeDecomposition(n=td.n, bags=new_bags, parent=new_parent)


def decompose(graph: Graph, order: list | None = None) -> TreeDecomposition:
    """Full pipeline: one elimination pass (min-degree order unless one is
    supplied), then supernode merge."""
    return supernode_merge(eliminate(graph, order))
