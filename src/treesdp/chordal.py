"""Undirected graphs, elimination orderings, and clique-tree decompositions.

The decomposition pipeline is: aggregate a sparsity pattern into a graph,
choose an elimination order (greedy minimum degree by default), run a symbolic
factorization to obtain one bag per vertex with elimination-tree parents, then
merge nested bags (supernodes).  The result is a rooted tree of index sets
covering all vertices and edges and satisfying the running-intersection
property.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ParseError
from .linalg import Triplets


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
    owns the tree tables every layer walks: ``root``, ``postorder()``,
    ``post_index`` and ``depth``.  Each is computed on first use and kept,
    so a tree that breaks the decomposition axioms still constructs."""

    n: int
    bags: list  # list of sorted tuples of vertex ids
    parent: np.ndarray

    def __post_init__(self):
        bags = [tuple(sorted(int(v) for v in bag)) for bag in self.bags]
        parent = np.array(self.parent, dtype=np.int64)
        parent.flags.writeable = False
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
    def _postorder(self) -> tuple:
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
        return tuple(order)

    def postorder(self) -> tuple:
        """Deterministic postorder: children before parents, smallest child
        index first (iterative DFS from the root)."""
        return self._postorder

    @cached_property
    def post_index(self) -> tuple:
        """Bag -> its position in :meth:`postorder`."""
        index = [0] * self.ell
        for k, j in enumerate(self._postorder):
            index[j] = k
        return tuple(index)

    @cached_property
    def depth(self) -> tuple:
        """Bag -> number of edges to the root (root = 0)."""
        depth = [0] * self.ell
        parent = self.parent.tolist()
        for j in reversed(self._postorder):  # parents before children
            p = parent[j]
            if p != j:
                depth[j] = depth[p] + 1
        return tuple(depth)


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
    edges = np.unique(stack.cols[off] * n + stack.rows[off])
    lo, hi = np.divmod(edges, n)
    return Graph(n=n, edges=zip(lo.tolist(), hi.tolist()))


def min_degree_order(graph: Graph) -> list:
    """Greedy minimum-degree elimination order; ties break to the smallest
    vertex id.  Deterministic.

    A heap keyed on (degree, id) holds an entry for every degree a vertex
    has had; an entry whose vertex is gone or whose degree is stale is
    skipped when it surfaces."""
    adj = graph.adjacency()
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    eliminated = [False] * graph.n
    order = []
    while heap:
        degree, best = heapq.heappop(heap)
        if eliminated[best] or degree != len(adj[best]):
            continue
        eliminated[best] = True
        order.append(best)
        nbrs = adj[best]
        for u in nbrs:
            adj[u].discard(best)
        nbr_list = sorted(nbrs)
        for i, u in enumerate(nbr_list):
            for w in nbr_list[i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
        for u in nbr_list:
            heapq.heappush(heap, (len(adj[u]), u))
        adj[best] = set()
    return order


def symbolic_factor(graph: Graph, order: list | None = None) -> TreeDecomposition:
    """Symbolic Cholesky of the permuted pattern: one bag per vertex
    (the vertex plus its later neighbors in the filled graph), parent = bag of
    the earliest-eliminated later neighbor.  Disconnected components produce
    an elimination forest; every non-final component root is re-parented to
    the final root so the result is a single tree."""
    if order is None:
        order = min_degree_order(graph)
    n = graph.n
    if sorted(order) != list(range(n)):
        raise DimensionMismatch("elimination order is not a permutation")
    pos = {v: k for k, v in enumerate(order)}
    adj = graph.adjacency()
    bags = []
    parent = np.arange(n, dtype=np.int64)
    for k, v in enumerate(order):
        nbrs = adj[v]  # uneliminated neighbors in the current filled graph
        bags.append(tuple(sorted([v] + list(nbrs))))
        if nbrs:
            first = min(nbrs, key=lambda u: pos[u])
            parent[k] = pos[first]
        for u in nbrs:
            adj[u].discard(v)
        nbr_list = sorted(nbrs)
        for i, u in enumerate(nbr_list):
            for w in nbr_list[i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
        adj[v] = set()
    roots = [j for j in range(n) if parent[j] == j]
    final_root = max(roots) if roots else n - 1
    for r in roots:
        if r != final_root:
            parent[r] = final_root
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
    """Full pipeline: ordering (min-degree unless supplied), symbolic
    factorization, supernode merge."""
    return supernode_merge(symbolic_factor(graph, order))
