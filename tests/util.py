"""Shared instance generators and reference implementations for the test
suite."""

import heapq
from dataclasses import dataclass
from types import SimpleNamespace
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpbtrf, dtbtrs

from treesdp.chordal import Graph, TreeDecomposition, decompose
from treesdp.convert import ConvertedProblem
from treesdp.errors import (
    BlockNotPsd,
    DimensionMismatch,
    DisconnectedSupport,
    NotInterior,
    OverlapMismatch,
    ParseError,
    UncoverableEntry,
    UnsupportedBlockStructure,
)
from treesdp.ipm import ConeOps, _positive_quadratic_root, _soc_g2
from treesdp.linalg import (
    _CONGRUENCE,
    Triplets,
    order_of_tri,
    smat,
    smat_stack,
    svec,
    svec_stack,
    svec_coords,
    svec_scale,
    tri,
    tri_indices,
)
from treesdp.model import SdpProblem
from treesdp.normal import TreeNormalSystem
from treesdp.recovery import OVERLAP_TOL, SCORE_CAP, LowRankFactor, Metrics
from treesdp.splitting import split


@dataclass
class SparseSymmetric:
    """One sparse symmetric matrix as lower-triangle triplets (row >= col),
    canonicalised on its own: entries with row < col are transposed and
    duplicate (row, col) pairs are summed by one ``np.unique``; explicit
    zeros are kept.  The per-matrix form ``SdpProblem``'s stacked
    constructor replaced, kept as its oracle and as the tests' way to
    write one matrix."""

    order: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        vals = np.asarray(self.vals, dtype=float).ravel()
        if not (rows.shape == cols.shape == vals.shape):
            raise DimensionMismatch("rows/cols/vals must have equal length")
        if rows.size and (
            rows.min() < 0 or cols.min() < 0
            or rows.max() >= self.order or cols.max() >= self.order
        ):
            raise DimensionMismatch(
                f"triplet index out of range for order {self.order}"
            )
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        if rows.size:
            key = hi * self.order + lo
            uniq, inv = np.unique(key, return_inverse=True)
            summed = np.zeros(uniq.shape[0])
            np.add.at(summed, inv, vals)
            hi = (uniq // self.order).astype(np.int64)
            lo = (uniq % self.order).astype(np.int64)
            vals = summed
        self.rows = hi
        self.cols = lo
        self.vals = vals

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @classmethod
    def from_dense(cls, mat):
        """The nonzero lower-triangle entries of a dense symmetric matrix."""
        mat = np.asarray(mat, dtype=float)
        rows, cols = tri_indices(mat.shape[0])
        vals = mat[rows, cols]
        keep = vals != 0.0
        return cls(mat.shape[0], rows[keep], cols[keep], vals[keep])


def stack_triplets(mats):
    """The entries of ``mats`` (lower storage, each with ``rows``,
    ``cols`` and ``vals``) under ids 0, 1, ..."""
    ids = np.repeat(np.arange(len(mats)), [len(a.rows) for a in mats])
    rows, cols, vals = (
        np.concatenate([getattr(a, key) for a in mats])
        for key in ("rows", "cols", "vals")
    )
    return Triplets(ids, rows, cols, vals)


def oracle_triplets(n, m, triplets):
    """The canonical stack of raw (id, row, col, value) entries of m + 1
    order-n matrices, by the per-matrix canonicaliser: each id's entries,
    in input order, become one ``SparseSymmetric``."""
    ids, rows, cols, vals = (np.asarray(a) for a in triplets)
    return stack_triplets([
        SparseSymmetric(n, rows[ids == i], cols[ids == i], vals[ids == i])
        for i in range(m + 1)
    ])


def make_problem(cost, constraints, b, senses=(), n=None):
    """``SdpProblem`` of order ``n`` (default: the order of ``cost``) whose
    data are the matrices ``cost`` and ``constraints``, each a
    ``SparseSymmetric`` or a view of another problem's stack."""
    n = cost.order if n is None else n
    return SdpProblem(n, stack_triplets([*constraints, cost]), b, list(senses))


def to_dense(mat, n):
    """A matrix given by lower-triangle triplets as a dense n x n array."""
    out = np.zeros((n, n))
    out[mat.rows, mat.cols] = mat.vals
    out[mat.cols, mat.rows] = mat.vals
    return out


def dot_sym(mat, x):
    """<A, X> = trace(A X) of lower-triangle triplets A and a dense
    symmetric X."""
    vals = np.where(mat.rows == mat.cols, mat.vals, 2.0 * mat.vals)
    return float(np.sum(vals * x[mat.rows, mat.cols]))


def validate(td, graph=None):
    """Violations of the decomposition axioms by ``td`` (empty == valid):
    one root, parents in range and acyclic, every vertex (and every edge
    of ``graph``) covered, running intersection, at most n bags."""
    problems = []
    ell = td.ell
    if td.parent.shape != (ell,):
        problems.append("parent array length mismatch")
        return problems
    roots = [j for j in range(ell) if int(td.parent[j]) == j]
    if len(roots) != 1:
        problems.append(f"expected exactly one root, found {len(roots)}")
    for j in range(ell):
        p = int(td.parent[j])
        if not (0 <= p < ell):
            problems.append(f"bag {j + 1}: parent out of range")
    # acyclicity / reachability
    if len(roots) == 1:
        seen = set()
        for j in range(ell):
            path = []
            cur = j
            while cur not in seen and int(td.parent[cur]) != cur:
                path.append(cur)
                cur = int(td.parent[cur])
                if cur in path:
                    problems.append(f"bag {j + 1}: parent cycle")
                    break
            seen.update(path)
    covered = set()
    for bag in td.bags:
        covered.update(bag)
    missing = set(range(td.n)) - covered
    if missing:
        problems.append(
            f"vertices not covered: {sorted(v + 1 for v in missing)}"
        )
    if graph is not None:
        bag_sets = [set(b) for b in td.bags]
        for u, v in graph.edges:
            if not any(u in bs and v in bs for bs in bag_sets):
                problems.append(f"edge ({u + 1}, {v + 1}) not covered")
    # running intersection: bags holding v form a connected subtree
    holds = [[] for _ in range(td.n)]
    for j, bag in enumerate(td.bags):
        for v in bag:
            holds[v].append(j)
    for v in range(td.n):
        js = holds[v]
        if len(js) <= 1:
            continue
        js_set = set(js)
        root_count = 0
        for j in js:
            p = int(td.parent[j])
            if p == j or p not in js_set:
                root_count += 1
        if root_count != 1:
            problems.append(
                f"vertex {v + 1}: bags containing it form "
                f"{root_count} subtrees"
            )
    if ell > td.n:
        problems.append(f"{ell} bags exceed n = {td.n}")
    return problems


def check_interior(ops, z, label="point"):
    """Raise NotInterior unless ``z`` is interior to every cone segment
    of ``ops``."""
    for sl in ops.soc_slices:
        v = z[sl]
        if v[0] <= 0.0 or _soc_g2(v) <= 0.0:
            raise NotInterior(
                f"{label}: second-order segment at offset {sl.start} "
                "is not interior"
            )
    for order, idx in ops.psd_groups.items():
        if np.min(np.linalg.eigvalsh(smat_stack(z[idx]))) <= 0.0:
            raise NotInterior(
                f"{label}: an order-{order} matrix segment is not "
                "positive definite"
            )
    if ops.nn_idx.size and np.min(z[ops.nn_idx]) <= 0.0:
        raise NotInterior(f"{label}: a slack coordinate is nonpositive")


def _dense_blocks(sys_, diag, off, mirror, bands=()):
    """A normal system's group blocks as one dense matrix in the original
    coordinates; ``mirror`` also fills the upper triangle of each edge
    block.  Each (rows, band) of ``bands`` then writes a run's lower band
    (LAPACK band storage) over its rows' square, which holds the run's
    diagonal blocks and the edge blocks of its links."""
    out = np.zeros((sys_.dim, sys_.dim))
    for k, (sl, slab) in enumerate(zip(sys_.slices, sys_._slabs)):
        if diag[k] is not None:
            out[sl, sl] = diag[k]
        if slab is not None and off[k] is not None:
            out[slab, sl] = off[k]
            if mirror:
                out[sl, slab] = off[k].T
    for rows, band in bands:
        size = rows.stop - rows.start
        square = np.zeros((size, size))
        for d in range(band.shape[0]):
            col = np.arange(size - d)
            square[col + d, col] = band[d, :size - d]
        out[rows, rows] = square
    inv = sys_._inv_perm
    return out[np.ix_(inv, inv)]


def factor_bands(sys_) -> list:
    """(rows, band) of each run of several groups of a normal engine."""
    return [(run.rows, run.band) for run in sys_._runs
            if run.band is not None]


def h_dense(sys_):
    """A normal system's assembled H as a dense matrix: ``apply_h`` of the
    identity columns, which is H to the last bit, before and after
    ``factor``.  (At sigma = 0 an edge entry that is zero may differ in
    sign: the buffer holds 0 * G^T G there, and apply_h adds a +0.0 from
    the Kronecker product of a zero column.)"""
    return sys_.apply_h(np.eye(sys_.dim))


def buffer_h_dense(sys_):
    """The H that ``assemble_h`` wrote into a normal system's buffer, as a
    dense matrix; the buffer holds it until ``factor`` runs."""
    diag, off = sys_._l_blocks
    return _dense_blocks(sys_, diag, off, mirror=True)


def reconstruct_factor(fac):
    """The matrix a ``CholeskyOrEig`` factorization stands for."""
    if fac.kind == "chol":
        return fac.chol_l @ fac.chol_l.T
    return (fac.eig_vecs * fac.eig_vals) @ fac.eig_vecs.T


def factor_dense(sys_):
    """A normal engine's factor L as a dense matrix in the original
    coordinates: its blocks in the flat buffer, and over each run of
    several groups its band instead."""
    return _dense_blocks(sys_, sys_.l_diag, sys_.l_off, mirror=False,
                         bands=factor_bands(sys_))


def reconstruct_dense(sys_):
    """L L^T of a normal system's factor as a dense matrix."""
    lower = factor_dense(sys_)
    return lower @ lower.T


def sym_kron_matrix(a, b):
    """Materialize the symmetric Kronecker product as a tri(o) x tri(o) matrix.

    Entry formula for packed positions p=(i,j), q=(k,l):
    s_p s_q / 4 * (A[i,k]B[j,l] + A[i,l]B[j,k] + B[i,k]A[j,l] + B[i,l]A[j,k]).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(
            f"sym_kron_matrix needs two square matrices of equal order, "
            f"got {a.shape} and {b.shape}"
        )
    order = a.shape[0]
    r, c = tri_indices(order)
    s = svec_scale(order)
    term = (
        a[np.ix_(r, r)] * b[np.ix_(c, c)]
        + a[np.ix_(r, c)] * b[np.ix_(c, r)]
        + b[np.ix_(r, r)] * a[np.ix_(c, c)]
        + b[np.ix_(r, c)] * a[np.ix_(c, r)]
    )
    return 0.25 * np.outer(s, s) * term


def same_bits(a, b) -> bool:
    """Whether two arrays are the same floats bit for bit: equal shape,
    dtype and ``tobytes()``, so -0.0 differs from 0.0 (``np.array_equal``
    lets them match) and a NaN matches the same NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_problem(a, b) -> bool:
    """Whether two ``SdpProblem`` are the same bit for bit: order, every
    triplet array and ``b`` by ``same_bits``, and the senses."""
    return (
        a.n == b.n
        and all(same_bits(x, y) for x, y in zip(a.triplets, b.triplets))
        and same_bits(a.b, b.b)
        and a.senses == b.senses
    )


def oracle_smat_stack(vecs):
    """Stacked ``smat`` by dividing the packed entries by their scales and
    scattering them into both triangles of a zero stack.  The oracle of
    ``linalg.smat_stack``, which gathers each full-matrix entry."""
    vecs = np.asarray(vecs, dtype=float)
    order = order_of_tri(vecs.shape[-1])
    rows, cols = tri_indices(order)
    vals = vecs / svec_scale(order)
    out = np.zeros(vecs.shape[:-1] + (order, order))
    out[..., rows, cols] = vals
    out[..., cols, rows] = vals
    return out


def oracle_sym_kron_stack(w):
    """``W (x)_s W`` for each matrix of a (g, o, o) stack by the full
    tri(o) x tri(o) formula, every (p, q) computed on its own:
    0.5 s_p s_q (W[r_p,r_q] W[c_p,c_q] + W[r_p,c_q] W[c_p,r_q]).  The
    oracle of ``linalg.sym_kron_stack``, which computes one triangle."""
    w = np.asarray(w, dtype=float)
    order = w.shape[-1]
    r, c = tri_indices(order)
    s = svec_scale(order)
    term = (
        w[:, r[:, None], r[None, :]] * w[:, c[:, None], c[None, :]]
        + w[:, r[:, None], c[None, :]] * w[:, c[:, None], r[None, :]]
    )
    return 0.5 * (s[:, None] * s[None, :]) * term


def bags_of_rows(ctc) -> list:
    """Per row of G = [A; N], the sorted tuple of the bags that its stored
    entries lie in, read one row at a time."""
    bag_of = np.repeat(np.arange(ctc.td.ell), ctc.width)
    g = ctc.g_matrix()
    return [
        tuple(sorted(set(bag_of[g.indices[lo:hi]].tolist())))
        for lo, hi in zip(g.indptr[:-1].tolist(), g.indptr[1:].tolist())
    ]


def plain_row_coupling(ctc) -> set:
    """Symbolic sparsity of the row-space normal matrix ``G D^{-1} G^T``.

    Two rows couple exactly when they touch a common coordinate block
    (the block-diagonal scaling is dense within a block).  Returns the
    set of coupled unordered row pairs ``(i, j)`` with ``i < j``.
    Intended for moderate row counts; the set is materialized.
    """
    rows_by_block: dict = {}
    for r, blocks in enumerate(bags_of_rows(ctc)):
        for j in blocks:
            rows_by_block.setdefault(j, []).append(r)
    pairs = set()
    for rows in rows_by_block.values():
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                pairs.add((rows[a], rows[b]))
    return pairs


def random_connected_graph(rng, n, extra_edge_prob=0.25):
    """Random tree plus extra edges (connected, sparse-ish)."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob / n:
                edges.append((i, j))
    return Graph(n, edges)


def random_rooted_tree(rng, ell):
    """Random rooted tree on ``ell`` singleton bags.  The labels are
    shuffled, so the root and each child sit at arbitrary indices."""
    perm = rng.permutation(ell)
    parent = np.empty(ell, dtype=np.int64)
    parent[perm[0]] = perm[0]
    for k in range(1, ell):
        parent[perm[k]] = perm[int(rng.integers(0, k))]
    return TreeDecomposition(
        n=ell, bags=[(j,) for j in range(ell)], parent=parent
    )


def ancestors(td, j):
    """Bag j, its parent, ..., the root: a walk up the parents."""
    path = [j]
    while int(td.parent[path[-1]]) != path[-1]:
        path.append(int(td.parent[path[-1]]))
    return path


def separator(td, j):
    """Intersection of bag j with its parent bag (empty at the root)."""
    p = int(td.parent[j])
    if p == j:
        return tuple()
    parent_set = set(td.bags[p])
    return tuple(v for v in td.bags[j] if v in parent_set)


def min_degree_order_reference(graph):
    """Greedy minimum-degree order by a scan over every live vertex per
    step; ties break to the smallest vertex id."""
    adj = graph.adjacency()
    alive = set(range(graph.n))
    order = []
    for _ in range(graph.n):
        best = min(alive, key=lambda v: (len(adj[v]), v))
        order.append(best)
        nbrs = adj[best]
        for u in nbrs:
            adj[u].discard(best)
        nbr_list = sorted(nbrs)
        for i, u in enumerate(nbr_list):
            for w in nbr_list[i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
        adj[best] = set()
        alive.discard(best)
    return order


def min_degree_order(graph):
    """Greedy minimum-degree order by a lazy (degree, id) heap; ties break
    to the smallest vertex id.  With ``symbolic_factor``, the two-pass
    oracle of ``chordal.eliminate``."""
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


def symbolic_factor(graph, order=None):
    """Replay the elimination game in ``order`` (``min_degree_order`` when
    None): one bag per vertex, the vertex plus its later neighbors in the
    filled graph, and parent the bag of the earliest-eliminated later
    neighbor.  Every non-final root is re-parented to the final one."""
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
            parent[k] = pos[min(nbrs, key=lambda u: pos[u])]
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


def random_bag_supported_matrix(rng, n, bag, density=0.8):
    """Random symmetric matrix supported inside one bag."""
    rows, cols, vals = [], [], []
    for ai, u in enumerate(bag):
        for v in bag[: ai + 1]:
            if rng.random() < density:
                rows.append(max(u, v))
                cols.append(min(u, v))
                vals.append(float(rng.standard_normal()))
    if not rows:  # guarantee at least one entry
        u = bag[int(rng.integers(0, len(bag)))]
        rows, cols, vals = [u], [u], [1.0]
    return SparseSymmetric(order=n, rows=rows, cols=cols, vals=vals)


def random_partially_separable_problem(rng, n, m, ineq_prob=0.0):
    """Random SDP with primal and dual strict feasibility:

    * a random connected graph fixes the aggregate pattern,
    * each constraint matrix is supported inside a single bag,
    * b is evaluated on a strictly feasible X0 (so Slater holds),
    * C = I + sum(y0_i A_i) guarantees a strictly feasible dual point.
    """
    graph = random_connected_graph(rng, n)
    td = decompose(graph)
    constraints = []
    senses = []
    for _ in range(m):
        bag = td.bags[int(rng.integers(0, td.ell))]
        constraints.append(random_bag_supported_matrix(rng, n, bag))
        senses.append("eq" if rng.random() >= ineq_prob else
                      ("ge" if rng.random() < 0.5 else "le"))
    # strictly feasible primal point with the aggregate pattern
    x0 = np.eye(n)
    for j in range(td.ell):
        bag = np.asarray(td.bags[j])
        q = rng.standard_normal((len(bag), len(bag))) * 0.2
        x0[np.ix_(bag, bag)] += q @ q.T
    b = np.array([dot_sym(a, x0) for a in constraints])
    # margin for inequalities so X0 stays strictly feasible
    for i, s in enumerate(senses):
        if s == "ge":
            b[i] -= abs(rng.standard_normal()) + 0.1
        elif s == "le":
            b[i] += abs(rng.standard_normal()) + 0.1
    y0 = rng.standard_normal(m) * 0.3
    for i, s in enumerate(senses):
        if s == "ge":
            y0[i] = abs(y0[i])  # dual sign for >= rows
        elif s == "le":
            y0[i] = -abs(y0[i])
    cost_dense = np.eye(n)
    for i, a in enumerate(constraints):
        cost_dense += y0[i] * to_dense(a, n)
    # keep only entries inside the aggregate pattern (guaranteed by support)
    cost = SparseSymmetric.from_dense(cost_dense)
    problem = make_problem(cost, constraints, b, senses)
    return problem, td


def random_spread_matrix(rng, n, td, count):
    """Symmetric matrix of ``count`` random entries, each inside a random
    bag, so that its entries may trigger several bags."""
    rows, cols, vals = [], [], []
    for _ in range(count):
        bag = td.bags[int(rng.integers(0, td.ell))]
        u, v = (bag[int(rng.integers(0, len(bag)))] for _ in range(2))
        rows.append(max(u, v))
        cols.append(min(u, v))
        vals.append(float(rng.standard_normal()))
    return SparseSymmetric(order=n, rows=rows, cols=cols, vals=vals)


def random_chordal_problem(rng, n_max=15):
    """Random SDP data on the decomposition of a random graph: a spread
    cost, and constraints inside one bag, spread over several bags, or
    empty (at least one empty inequality), with mixed senses.  No
    feasibility is implied."""
    n = int(rng.integers(2, n_max + 1))
    td = decompose(random_connected_graph(rng, n, float(rng.uniform(0, 3))))
    m = int(rng.integers(1, 8))
    constraints = []
    for _ in range(m - 1):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            bag = td.bags[int(rng.integers(0, td.ell))]
            constraints.append(random_bag_supported_matrix(rng, n, bag))
        elif kind == 1:
            count = int(rng.integers(1, 3 * n))
            constraints.append(random_spread_matrix(rng, n, td, count))
        else:
            constraints.append(SparseSymmetric(n, [], [], []))
    empty = int(rng.integers(0, m))
    constraints.insert(empty, SparseSymmetric(n, [], [], []))
    senses = [str(s) for s in rng.choice(["eq", "ge", "le"], size=m)]
    senses[empty] = "ge"
    cost = random_spread_matrix(rng, n, td, int(rng.integers(0, 3 * n)))
    problem = make_problem(cost, constraints, rng.standard_normal(m), senses)
    return problem, td


def with_wide_constraint(base):
    """``base`` plus one equality on the whole first column, a constraint
    that spans several bags (auxiliary chain rows under ``dctc-aux``)."""
    wide = SparseSymmetric(
        order=base.n,
        rows=list(range(base.n)),
        cols=[0] * base.n,
        vals=[1.0] * base.n,
    )
    return make_problem(
        base.cost,
        base.constraints + [wide],
        np.concatenate([base.b, [1.0]]),
        base.senses + ["eq"],
        n=base.n,
    )


def consistent_block_vector(rng, ctc, x_dense=None):
    """A z-vector whose blocks are the bag submatrices of one global X
    (slacks and aux coordinates zero).  Satisfies all overlap rows exactly."""
    n = ctc.problem.n
    if x_dense is None:
        x_dense = rng.standard_normal((n, n))
        x_dense = 0.5 * (x_dense + x_dense.T)
    z = np.zeros(ctc.dim_z)
    for bag, lo in zip(ctc.td.bags, ctc.svec_start.tolist()):
        bag = np.asarray(bag)
        z[lo:lo + tri(bag.size)] = svec(x_dense[np.ix_(bag, bag)])
    return z, x_dense


def star_arrow_problem(n):
    """Arrow-pattern instance: min tr(X) s.t. X[i, n] = b_i for i < n.

    The aggregate graph is the star with hub n (0-based); both primal and
    dual Slater points exist for small b."""
    cost = SparseSymmetric(
        order=n + 1,
        rows=np.arange(n + 1),
        cols=np.arange(n + 1),
        vals=np.ones(n + 1),
    )
    constraints = [
        SparseSymmetric(order=n + 1, rows=[n], cols=[i], vals=[1.0])
        for i in range(n)
    ]
    b = np.array([0.5 / (i + 1) for i in range(n)])
    return make_problem(cost, constraints, b)


def stack_scalings(ctc, mats, slacks):
    """Per-block scaling matrices and slack-scaling vectors in the normal
    engine's format: order -> (g, o, o) stack and one slack vector, both
    in block order."""
    per_order = {}
    for o, mat in zip(ctc.order.tolist(), mats, strict=True):
        per_order.setdefault(o, []).append(mat)
    psd_w = {o: np.stack(group) for o, group in per_order.items()}
    return psd_w, np.concatenate([np.asarray(v, float) for v in slacks])


def unstack_scalings(ctc, psd_w, nn_w2):
    """The inverse of :func:`stack_scalings`: block j's scaling matrix and
    slack scalings, found by walking the blocks in block order."""
    seen = {}
    mats, slacks = [], []
    lo = 0
    for o, n_nn in zip(ctc.order.tolist(), ctc.n_nn.tolist()):
        k = seen.get(o, 0)
        seen[o] = k + 1
        mats.append(psd_w[o][k])
        slacks.append(nn_w2[lo:lo + n_nn])
        lo += n_nn
    assert all(len(psd_w[o]) == k for o, k in seen.items())
    assert lo == len(nn_w2)
    return mats, slacks


def random_scaling_data(rng, ctc, sigma_range=(0.2, 2.0)):
    """Random interior scaling data for a converted problem's blocks, in
    the normal engine's format (see :func:`stack_scalings`)."""
    mats = []
    slacks = []
    for o, n_nn in zip(ctc.order.tolist(), ctc.n_nn.tolist()):
        q = rng.standard_normal((o, o))
        mats.append(q @ q.T + o * np.eye(o))
        slacks.append(np.abs(rng.standard_normal(n_nn)) + 0.5)
    sigma = float(rng.uniform(*sigma_range))
    q_vec = rng.standard_normal(ctc.dim_z)
    return (sigma, q_vec) + stack_scalings(ctc, mats, slacks)


def dense_h_oracle(ctc, sigma, psd_w, nn_w2):
    """Independent dense construction of H = D_block + sigma * G^T G."""
    mats, slacks = unstack_scalings(ctc, psd_w, nn_w2)
    dim = ctc.dim_z
    d_block = np.zeros((dim, dim))
    for j in range(ctc.td.ell):
        s0 = int(ctc.svec_start[j])
        t = tri(int(ctc.order[j]))
        d_block[s0:s0 + t, s0:s0 + t] = sym_kron_matrix(mats[j], mats[j])
        for k in range(int(ctc.n_nn[j])):
            c = int(ctc.nn_start[j]) + k
            d_block[c, c] = slacks[j][k]
    g = ctc.g_matrix().toarray()
    return d_block + sigma * (g.T @ g)


def path_rayleigh_problem(n_plus_1, seed=0):
    """Tridiagonal Rayleigh-quotient instance on a path:

    min C.X subject to A.X = 1, X PSD, with A, C symmetric tridiagonal
    and A positive definite (diagonally dominant).  The sparsity graph is
    the path on ``n_plus_1`` vertices, and the single constraint spans
    every bag of its decomposition, which is the worst case for the
    row-space normal matrix and the motivating case for auxiliary
    chain variables."""
    rng = np.random.default_rng(seed)
    n1 = n_plus_1
    off_a = rng.uniform(-0.4, 0.4, n1 - 1)
    diag_a = 1.0 + np.abs(rng.standard_normal(n1)) * 0.5
    diag_a[:-1] += np.abs(off_a)
    diag_a[1:] += np.abs(off_a)  # strict diagonal dominance => A > 0
    off_c = rng.standard_normal(n1 - 1)
    diag_c = rng.standard_normal(n1)

    def tridiag(diag, off):
        rows = list(range(n1)) + list(range(1, n1))
        cols = list(range(n1)) + list(range(n1 - 1))
        vals = list(diag) + list(off)
        return SparseSymmetric(order=n1, rows=rows, cols=cols, vals=vals)

    a_mat = tridiag(diag_a, off_a)
    c_mat = tridiag(diag_c, off_c)
    return make_problem(c_mat, [a_mat], np.array([1.0]))


def power_flow_problem(width, length, seed=0):
    """Power-flow-shaped instance on the ``width`` x ``length`` grid
    network, bus (r, c) being vertex c * width + r, with edge weights drawn
    from [0.5, 2] and weighted Laplacian Y:

    min (Y + I).X subject to, for each bus k, |A_k.X| <= 0.05 with
    A_k = (e_k y_k^T + y_k e_k^T) / 2 (y_k the row k of Y), and
    0.81 <= X_kk <= 1.21.

    Each A_k covers bus k's closed neighbourhood, which spans several bags
    of the grid's decomposition: ``dctc`` rejects the rows, and
    ``dctc-aux`` chains them.  X = 0.81 * 1 1^T is feasible."""
    n = width * length
    edges = [
        (c * width + r, c * width + r + 1)
        for c in range(length) for r in range(width - 1)
    ] + [
        (c * width + r, (c + 1) * width + r)
        for c in range(length - 1) for r in range(width)
    ]
    weight = np.random.default_rng(seed).uniform(0.5, 2.0, len(edges))
    degree = np.zeros(n)
    links = [[] for _ in range(n)]  # bus -> (neighbour, weight)
    for (u, v), w in zip(edges, weight):
        degree[[u, v]] += w
        links[u].append((v, w))
        links[v].append((u, w))
    constraints, b, senses = [], [], []
    for k in range(n):
        a_k = SparseSymmetric(
            n,
            [k] + [max(j, k) for j, _ in links[k]],
            [k] + [min(j, k) for j, _ in links[k]],
            [degree[k]] + [-w / 2.0 for _, w in links[k]],
        )
        diag = SparseSymmetric(n, [k], [k], [1.0])
        constraints += [a_k, a_k, diag, diag]
        b += [0.05, -0.05, 0.81, 1.21]
        senses += ["le", "ge", "ge", "le"]
    u, v = np.array(edges).T
    cost = SparseSymmetric(
        n,
        np.concatenate([np.arange(n), v]),
        np.concatenate([np.arange(n), u]),
        np.concatenate([degree + 1.0, -weight]),
    )
    return make_problem(cost, constraints, np.array(b), senses)


def hess_apply(ops, w, v):
    """Barrier Hessian at the scaling point, ∇²F(w) v, for a vector or a
    (dim, k) column batch; the inverse of ``ops.hess_inv_apply``.  Forms
    W^{-1} per matrix segment and applies V -> W^{-1} V W^{-1}."""
    v = np.asarray(v, dtype=float)
    cols = v.reshape(v.shape[0], -1)
    out = np.zeros_like(cols)
    for sc in w.soc:
        jw = sc.w.copy()
        jw[1:] = -jw[1:]
        jv = cols[sc.sl].copy()
        jv[1:] = -jv[1:]
        out[sc.sl] = (
            np.outer(jw, 2.0 * (jw @ cols[sc.sl]) / sc.g2 ** 2) - jv / sc.g2
        )
    for order, idx in ops.psd_groups.items():
        w_inv = np.linalg.inv(w.psd_stacks[order])
        for g, coords in enumerate(idx):
            for k in range(cols.shape[1]):
                mat = smat(cols[coords, k])
                out[coords, k] = svec(w_inv[g] @ mat @ w_inv[g])
    out[ops.nn_idx] = cols[ops.nn_idx] / (w.nn_w ** 2)[:, None]
    return out.reshape(v.shape)


def oracle_hess_inv_apply(ops, w, v):
    """(∇²F(w))^{-1} v for a vector or a (dim, k) column batch, as
    ``ConeOps.hess_inv_apply`` computed it with fancy-index gathers,
    ``np.moveaxis``, the scatter form of smat and ``np.einsum`` with the
    greedy path: the oracle its ``np.take`` gathers and direct einsum
    steps must match bit for bit."""
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    cols = v.reshape(-1, 1) if single else v
    out = np.zeros_like(cols)
    for sc in w.soc:
        vv = cols[sc.sl]
        jv = vv.copy()
        jv[1:] = -jv[1:]
        coef = sc.w @ vv
        out[sc.sl] = 2.0 * sc.w[:, None] * coef[None, :] - sc.g2 * jv
    for order, idx in ops.psd_groups.items():
        w_stack = w.psd_stacks[order]
        k = cols.shape[1]
        vecs = cols[idx]
        mats = oracle_smat_stack(
            np.moveaxis(vecs, 2, 1).reshape(-1, vecs.shape[1])
        ).reshape(vecs.shape[0], k, order, order)
        res = np.einsum(_CONGRUENCE, w_stack, mats, w_stack, optimize="greedy")
        rows, cols_ = tri_indices(order)
        packed = res.reshape(-1, order, order)[..., rows, cols_]
        flat = (packed * svec_scale(order)).reshape(vecs.shape[0], k, -1)
        out[idx] = np.moveaxis(flat, 1, 2)
    if ops.nn_idx.size:
        out[ops.nn_idx] = cols[ops.nn_idx] * (w.nn_w ** 2)[:, None]
    return out[:, 0] if single else out


def oracle_grad(ops, z):
    """Barrier gradient ∇F(z) at any interior z, decomposing each matrix
    segment of z on every call: the array-in form that ``ConeOps.grad``
    replaced, with the same calls in the same order."""
    g = np.zeros_like(z)
    for sl in ops.soc_slices:
        v = z[sl]
        g2 = _soc_g2(v)
        jv = v.copy()
        jv[1:] = -jv[1:]
        g[sl] = -jv / g2
    for order, idx in ops.psd_groups.items():
        mats = smat_stack(z[idx])
        vals, vecs = np.linalg.eigh(mats)
        inv = ConeOps._spectral(vecs, 1.0 / vals)
        g[idx] = -svec_stack(inv)
    if ops.nn_idx.size:
        g[ops.nn_idx] = -1.0 / z[ops.nn_idx]
    return g


def oracle_max_step(ops, z, dz):
    """sup {alpha : z + alpha dz interior} (inf if unbounded) for one
    point, decomposing z on every call: the array-in form that
    ``ConeOps.max_step`` replaced."""
    alpha = np.inf
    for sl in ops.soc_slices:
        v, d = z[sl], dz[sl]
        a = _soc_g2(d)
        jd = d.copy()
        jd[1:] = -jd[1:]
        b = 2.0 * float(v @ jd)
        c = _soc_g2(v)
        alpha = min(alpha, _positive_quadratic_root(a, b, c))
    for order, idx in ops.psd_groups.items():
        xm = smat_stack(z[idx])
        dm = smat_stack(dz[idx])
        vals, vecs = np.linalg.eigh(xm)
        assert float(vals[:, 0].min()) > 0.0
        x_ihalf = ConeOps._spectral(vecs, 1.0 / np.sqrt(vals))
        c = x_ihalf @ dm @ x_ihalf
        c = 0.5 * (c + np.swapaxes(c, 1, 2))
        lam_min = float(np.min(np.linalg.eigvalsh(c)))
        if lam_min < 0.0:
            alpha = min(alpha, -1.0 / lam_min)
    if ops.nn_idx.size:
        v, d = z[ops.nn_idx], dz[ops.nn_idx]
        neg = d < 0.0
        if np.any(neg):
            alpha = min(alpha, float(np.min(-v[neg] / d[neg])))
    return alpha


def oracle_psd_stacks(ops, x, s):
    """The NT scaling stacks W = S^-½ (S^½ X S^½)^½ S^-½ per order, by the
    calls ``ConeOps.scaling_point`` made before it also decomposed X."""
    stacks = {}
    for order, idx in ops.psd_groups.items():
        xm = smat_stack(x[idx])
        svals, svecs = np.linalg.eigh(smat_stack(s[idx]))
        s_half = ConeOps._spectral(svecs, np.sqrt(svals))
        s_ihalf = ConeOps._spectral(svecs, 1.0 / np.sqrt(svals))
        a = s_half @ xm @ s_half
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        avals, avecs = np.linalg.eigh(a)
        a_half = ConeOps._spectral(avecs, np.sqrt(avals))
        w_stack = s_ihalf @ a_half @ s_ihalf
        stacks[order] = 0.5 * (w_stack + np.swapaxes(w_stack, 1, 2))
    return stacks


def reference_sweep_runs(groups, parent, width) -> list:
    """(first group, group count) of each run that a normal engine's
    factor and solve_h walk, cut group by group: a run grows while the
    next group has the same width and the same attach-bag width (0 at the
    root) and holds no member's attach bag but its predecessor's."""
    group_of = {j: k for k, members in enumerate(groups) for j in members}
    runs = []
    for k, members in enumerate(groups):
        top = members[-1]
        b = parent[top]
        shape = (sum(width[j] for j in members), 0 if b == top else width[b])
        if runs and shape == runs[-1][2] and all(
            group_of[parent[groups[m][-1]]] != k
            for m in range(runs[-1][0], k - 1)
        ):
            runs[-1][1] += 1
        else:
            runs.append([k, 1, shape])
    return [(first, n) for first, n, _ in runs]


class ReferenceTreeNormal(TreeNormalSystem):
    """The block-tree normal engine over the engine's groups, one group at
    a time through ``scipy.linalg.solve_triangular``, each block a separate
    array, with the coordinate permutation worked out bag by bag, the
    scaling data unstacked per bag and G^T G summed entry by entry: the
    reference the engine's flat buffers and direct LAPACK calls must match
    bit for bit.

    A run of several groups (cut here group by group), with links (a
    member attaching to the next) or without, is entered one entry at a
    time into a LAPACK band matrix, whose half bandwidth is worked out
    entry by entry too, and factored and solved by ``dpbtrf`` and
    ``dtbtrs``, as the engine's factor and solve do."""

    def __init__(self, dualized):
        super().__init__(dualized)
        self.parent = self.ctc.td.parent.tolist()
        self.bag_width = self.ctc.width.tolist()
        starts = self.ctc.svec_start.tolist()
        # bag -> its group and its first row inside the group block
        self.group_of, self.at = {}, {}
        self.widths, perm = [], []
        for k, members in enumerate(self.groups):
            w = 0
            for j in members:
                self.group_of[j], self.at[j] = k, w
                w += self.bag_width[j]
                perm.extend(range(starts[j], starts[j] + self.bag_width[j]))
            self.widths.append(w)
        self.ref_perm = np.array(perm)
        # the attach bag: the one parent outside the group of its tops
        self.attach = []
        for k, members in enumerate(self.groups):
            outside = {
                self.parent[j] for j in members
                if self.group_of[self.parent[j]] != k
            }
            assert len(outside) <= 1
            self.attach.append(outside.pop() if outside else None)
        self.runs = reference_sweep_runs(
            self.groups, self.parent, self.bag_width
        )
        # run of several -> (members that attach to the next member, half
        # bandwidth)
        self.band_runs = {}
        for first, n in self.runs:
            linked = [
                i for i in range(n - 1)
                if self.attach[first + i] is not None
                and self.group_of[self.attach[first + i]] == first + i + 1
            ]
            if n > 1:
                self.band_runs[first] = (linked, self._band_width(first, n))
        self.gtg_diag, self.gtg_off = self._reference_gram()
        self.ref_gtg = (self.dualized.g_csr.T @ self.dualized.g_csr).tocsr()

    def _band_width(self, first, n):
        """The half bandwidth of the run of n groups from ``first`` on,
        entry by entry: the largest row-minus-column distance of an entry
        of G^T G inside the run, of a bag's Kronecker block, or of a
        group's update of its attach block, which spans the attach rows
        that G^T G couples with the group."""
        pos = np.empty(self.dim, dtype=np.int64)
        pos[self.ref_perm] = np.arange(self.dim)
        lo, hi = self._rows(first).start, self._rows(first + n - 1).stop
        kd = 0
        rows_of = {}  # group -> the attach rows coupled with it
        gtg = (self.dualized.g_csr.T @ self.dualized.g_csr).tocoo()
        coord_group = [
            k for k, members in enumerate(self.groups) for j in members
            for _ in range(self.bag_width[j])
        ]
        for r, c in zip(gtg.row.tolist(), gtg.col.tolist()):
            i, j = int(pos[r]), int(pos[c])
            if lo <= i < hi and lo <= j < hi:
                kd = max(kd, abs(i - j))
            if i > j and coord_group[i] != coord_group[j]:
                rows_of.setdefault(coord_group[j], []).append(i)
        for g in range(first, first + n):
            for j in self.groups[g]:
                kd = max(kd, tri(int(self.ctc.order[j])) - 1)
        for rows in rows_of.values():
            if lo <= rows[0] < hi:
                kd = max(kd, max(rows) - min(rows))
        return kd

    def _reference_gram(self):
        """Diagonal and edge blocks of G^T G, one entry at a time."""
        starts = self.ctc.svec_start
        gtg = (self.dualized.g_csr.T @ self.dualized.g_csr).tocoo()
        block_of_coord = np.repeat(np.arange(self.ell), self.bag_width)
        diag = [np.zeros((w, w)) for w in self.widths]
        off = [
            None if b is None else np.zeros((self.bag_width[b], w))
            for b, w in zip(self.attach, self.widths)
        ]
        for r, c, v in zip(gtg.row, gtg.col, gtg.data):
            a, b = int(block_of_coord[r]), int(block_of_coord[c])
            ga, gb = self.group_of[a], self.group_of[b]
            lr = r - starts[a]
            lc = self.at[b] + c - starts[b]
            if ga == gb:
                diag[ga][self.at[a] + lr, lc] += v
            elif self.attach[gb] == a:
                off[gb][lr, lc] += v
            else:
                assert self.attach[ga] == b  # mirror entry, stored once
        return diag, off

    def assemble_h(self, sigma, psd_w, nn_w2):
        mats, slacks = unstack_scalings(self.ctc, psd_w, nn_w2)
        h_diag = [sigma * blk for blk in self.gtg_diag]
        groups = {}
        for j, o in enumerate(self.ctc.order.tolist()):
            groups.setdefault(o, []).append(j)
        self.kron_of, self.slacks = {}, slacks  # per bag, for apply_h
        for o, idxs in groups.items():
            kron = oracle_sym_kron_stack(np.stack([mats[j] for j in idxs]))
            t = tri(o)
            for pos, j in enumerate(idxs):
                s = self.at[j]
                h_diag[self.group_of[j]][s:s + t, s:s + t] += kron[pos]
                self.kron_of[j] = kron[pos]
        ctc = self.ctc
        for j in range(self.ell):
            n_nn = int(ctc.n_nn[j])
            lo = self.at[j] + int(ctc.nn_start[j] - ctc.svec_start[j])
            sub = h_diag[self.group_of[j]][lo:lo + n_nn, lo:lo + n_nn]
            sub[np.diag_indices(n_nn)] += slacks[j]
        self.h_diag = h_diag
        self.h_off = [
            None if blk is None else sigma * blk for blk in self.gtg_off
        ]
        self.sigma = float(sigma)

    def factor(self):
        max_diag = max(
            (float(np.max(np.diag(blk))) if blk.size else 0.0)
            for blk in self.h_diag
        )
        reg = 1e-12 * (1.0 + max(max_diag, 0.0))
        work = [blk.copy() for blk in self.h_diag]
        for blk in work:
            blk[np.diag_indices(blk.shape[0])] += reg
        l_diag = [None] * len(self.groups)
        l_off = [None] * len(self.groups)
        self.band = {}

        def update(k, r):
            b = self.attach[k]
            s, wb = self.at[b], self.bag_width[b]
            work[self.group_of[b]][s:s + wb, s:s + wb] -= r @ r.T

        for first, n in self.runs:
            if first in self.band_runs:
                linked, kd = self.band_runs[first]
                band = self._gather_band(first, n, kd, linked, work)
                c, info = dpbtrf(band, lower=1)
                assert info == 0
                band = np.asfortranarray(c)
                self.band[first] = band
                w = self.widths[first]
                for i in range(n):
                    if i in linked:
                        continue
                    k = first + i
                    # the member's own columns of the band
                    lt, info = dtbtrs(band[:, i * w:i * w + w],
                                      self.h_off[k].T, uplo="L")
                    assert info == 0
                    l_off[k] = lt.T
                    update(k, l_off[k])
                continue
            (k,) = range(first, first + n)
            lk = np.linalg.cholesky(work[k])
            l_diag[k] = lk
            if self.attach[k] is not None:
                l_off[k] = solve_triangular(lk, self.h_off[k].T,
                                            lower=True).T
                update(k, l_off[k])
        self.l_diag = l_diag
        self.l_off = l_off

    def _gather_band(self, first, n, kd, linked, work):
        """The LAPACK lower band (kd + 1 rows, F-ordered) of the run of n
        groups from ``first`` on, entry by entry from its members'
        diagonal blocks in ``work`` and its links' edge blocks."""
        w = self.widths[first]
        size = n * w
        band = np.zeros((size, kd + 1)).T
        for j in range(size):
            for d in range(min(kd + 1, size - j)):
                i = j + d
                mi, mj = divmod(i, w), divmod(j, w)
                if mi[0] == mj[0]:
                    band[d, j] = work[first + mj[0]][mi[1], mj[1]]
                elif mi[0] == mj[0] + 1 and mj[0] in linked:
                    k = first + mj[0]
                    a = mi[1] - self.at[self.attach[k]]
                    if 0 <= a < self.h_off[k].shape[0]:
                        band[d, j] = self.h_off[k][a, mj[1]]
        return band

    def factor_bands(self) -> list:
        """(rows, band) of each run of several, as ``factor_bands`` reads
        them off the engine."""
        return [
            (slice(self._rows(first).start,
                   self._rows(first + n - 1).stop), self.band[first])
            for first, n in self.runs if first in self.band_runs
        ]

    def _rows(self, k):
        """Group k's slice of the permuted coordinates."""
        lo = sum(self.widths[:k])
        return slice(lo, lo + self.widths[k])

    def _attach_slice(self, k):
        """The permuted coordinates of group k's attach bag."""
        b = self.attach[k]
        lo = self._rows(self.group_of[b]).start + self.at[b]
        return slice(lo, lo + self.bag_width[b])

    def _unpermute(self, x, single):
        out = np.empty_like(x)
        out[self.ref_perm] = x
        return out[:, 0] if single else out

    def solve_h(self, rhs):
        cols, single = self._as_columns(rhs)
        x = cols[self.ref_perm]
        for first, n in self.runs:
            if first in self.band_runs:
                linked, _ = self.band_runs[first]
                rows = slice(self._rows(first).start,
                             self._rows(first + n - 1).stop)
                x[rows], info = dtbtrs(self.band[first], x[rows], uplo="L")
                assert info == 0
                for i in range(n):
                    if i not in linked:
                        k = first + i
                        x[self._attach_slice(k)] -= (
                            self.l_off[k] @ x[self._rows(k)]
                        )
                continue
            sl = self._rows(first)
            yk = solve_triangular(self.l_diag[first], x[sl], lower=True)
            x[sl] = yk
            if self.attach[first] is not None:
                x[self._attach_slice(first)] -= self.l_off[first] @ yk
        for first, n in reversed(self.runs):
            if first in self.band_runs:
                linked, _ = self.band_runs[first]
                rows = slice(self._rows(first).start,
                             self._rows(first + n - 1).stop)
                for i in range(n):
                    if i not in linked:
                        k = first + i
                        x[self._rows(k)] -= (
                            self.l_off[k].T @ x[self._attach_slice(k)]
                        )
                x[rows], info = dtbtrs(self.band[first], x[rows], uplo="L",
                                       trans="T")
                assert info == 0
                continue
            sl = self._rows(first)
            t = x[sl]
            if self.attach[first] is not None:
                t = t - self.l_off[first].T @ x[self._attach_slice(first)]
            x[sl] = solve_triangular(self.l_diag[first], t, lower=True,
                                     trans="T")
        return self._unpermute(x, single)

    def apply_h(self, x):
        """H x in the original coordinates, in the engine's order of
        additions: each row of sigma G^T G x summed from 0.0 entry by entry
        in the CSR product's storage order, then bag by bag its Kronecker
        block's term, 0.0 on its chain coordinates and its slack scalings'
        term."""
        v, single = self._as_columns(x)
        gtg, ctc = self.ref_gtg, self.ctc
        out = np.zeros((self.dim, v.shape[1]))
        for i in range(self.dim):
            for jj in range(gtg.indptr[i], gtg.indptr[i + 1]):
                out[i] += gtg.data[jj] * v[gtg.indices[jj]]
        out = self.sigma * out
        for j, kron in self.kron_of.items():
            s = int(ctc.svec_start[j])
            sl = slice(s, s + kron.shape[0])
            out[sl] += kron @ np.ascontiguousarray(v[sl])
            s = int(ctc.aux_start[j])
            out[s:s + int(ctc.n_aux[j])] += 0.0
            s = int(ctc.nn_start[j])
            sl = slice(s, s + int(ctc.n_nn[j]))
            out[sl] += self.slacks[j][:, None] * v[sl]
        return out[:, 0] if single else out


def loop_kron_runs(sys_) -> dict:
    """A normal engine's Kronecker runs, cut bag by bag: order o -> (first
    stack row, end stack row, byte offset into ``_l_flat``, shape,
    strides) per run.

    The i-th order-o bag in block order has its t x t block (t = tri(o))
    on its group block's diagonal.  Walking an order's bags, a bag
    continues the run of the one before it when both lie in one group,
    have the same width, and its block starts where that bag's block
    ends.  A run's step is the distance from one bag block to the next.
    """
    item = sys_._l_flat.itemsize
    width = sys_.ctc.width.tolist()
    place, pos = {}, 0  # bag -> (group, flat offset, group width, width)
    for k, members in enumerate(sys_.groups):
        w = sum(width[j] for j in members)
        row = 0
        for j in members:
            place[j] = (k, pos + row * (w + 1), w, width[j])
            row += width[j]
        pos += w * w
    places = {}
    for j, o in enumerate(sys_.ctc.order.tolist()):
        places.setdefault(o, []).append(place[j])
    runs = {}
    for o, seq in places.items():
        t = tri(o)
        cuts = [0]
        for i in range(1, len(seq)):
            (k, at, _, b), (pk, pat, pw, pb) = seq[i], seq[i - 1]
            if k != pk or b != pb or at != pat + pb * (pw + 1):
                cuts.append(i)
        cuts.append(len(seq))
        runs[o] = []
        for lo, hi in zip(cuts, cuts[1:]):
            _, at, w, b = seq[lo]
            runs[o].append(
                (lo, hi, at * item, (hi - lo, t, t),
                 (b * (w + 1) * item, w * item, item))
            )
    return runs


def loop_factor_ops(sys_) -> int:
    """The engine's per-factorization operation count, group by group: a
    w-wide group swept alone costs w^3 // 3 + w, plus w^2 r + w r^2 for
    the r rows of its attach bag.  A run of several groups of half
    bandwidth kd costs w (kd^2 + 1) per member, plus w r (kd + r) per
    member that attaches outside the run."""
    width = sys_.ctc.width.tolist()
    parent = sys_.ctc.td.parent.tolist()
    ref = ReferenceTreeNormal(sys_.dualized)
    ops = 0
    for first, n in ref.runs:
        for k in range(first, first + n):
            members = sys_.groups[k]
            w = sum(width[j] for j in members)
            b = parent[members[-1]]
            r = 0 if b == members[-1] else width[b]
            if first in ref.band_runs:
                linked, kd = ref.band_runs[first]
                ops += w * (kd * kd + 1)
                if k - first not in linked:
                    ops += w * r * (kd + r)
                continue
            ops += w ** 3 // 3 + w + w * w * r + w * r ** 2
    return ops


def unique_row_bags(g, bag_of, ell) -> tuple:
    """The distinct (row, bag) pairs of the stored entries of the CSR
    matrix ``g``, sorted by row and then bag, by ``np.unique`` over
    row * ell + bag keys."""
    rows = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
    return np.divmod(np.unique(rows * ell + bag_of[g.indices]), ell)


def nonzero_bag_pairs(sys_) -> tuple:
    """The off-diagonal bag pairs with a nonzero sub-block in a normal
    engine's assembled H and in its factor L, each a (k, 2) array of
    (later bag, earlier bag) rows in the permuted order.  H's are read off
    every entry of :func:`h_dense`, L's off every entry of
    :func:`factor_dense`, which holds the flat buffer's blocks and the
    bands of the runs of several groups.  The merged group blocks store
    every bag pair of a group, so a pair of bags that are not adjacent in
    the tree appears here exactly when it is nonzero."""

    def pairs(rows, cols):
        a, b = sys_._bag_of[rows], sys_._bag_of[cols]
        keep = (rows > cols) & (a != b)
        ids = np.unique(a[keep] * sys_.ell + b[keep])
        return np.column_stack(np.divmod(ids, sys_.ell))

    in_h = in_l = np.zeros((0, 2), dtype=np.int64)
    perm = sys_.perm
    if sys_._h_in is not None:
        in_h = pairs(*np.nonzero(h_dense(sys_)[np.ix_(perm, perm)]))
    if sys_.l_diag:
        in_l = pairs(*np.nonzero(factor_dense(sys_)[np.ix_(perm, perm)]))
    return in_h, in_l


def offdiag_block_counts(sys_) -> tuple:
    """(nonzero off-diagonal bag blocks of H, of L), as scanned: equal when
    the factor has no fill."""
    in_h, in_l = nonzero_bag_pairs(sys_)
    return len(in_h), len(in_l)


def measured_pattern(sys_) -> dict:
    """The block counts of ``TreeNormalSystem.pattern_stats``, measured on
    the engine's numbers: a fill block is a pair nonzero in L and zero in
    H."""
    in_h, in_l = nonzero_bag_pairs(sys_)
    in_h = set(map(tuple, in_h.tolist()))
    return {
        "offdiag_blocks": len(in_h),
        "factor_offdiag_blocks": len(in_l),
        "fill_blocks": sum(p not in in_h for p in map(tuple, in_l.tolist())),
    }


def data_norm(dualized) -> float:
    """Frobenius norm of a dualized program's data: G, c and the rows'
    right-hand side."""
    return float(
        np.sqrt(
            sp.linalg.norm(dualized.g_csr) ** 2
            + np.linalg.norm(dualized.ctc.c_z) ** 2
            + np.linalg.norm(dualized.ctc.g_rhs) ** 2
        )
    )


def _digits(numerator, denominator):
    if numerator <= 0.0:
        return SCORE_CAP
    return min(SCORE_CAP, float(-np.log10(numerator / denominator)))


def dense_dimacs_metrics(sdp, x, y):
    """``dimacs_metrics`` on dense n x n matrices: X (dense, or a
    LowRankFactor multiplied out), the slack sum_i y_i A_i - C and C, with
    per-row sense residuals and two dense ``eigvalsh`` calls."""
    if isinstance(x, LowRankFactor):
        x = x.U @ x.U.T
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()

    res = np.array([dot_sym(a, x) for a in sdp.constraints]) - sdp.b
    viol = np.empty_like(res)
    for i, sense in enumerate(sdp.senses):
        if sense == "eq":
            viol[i] = abs(res[i])
        elif sense == "ge":
            viol[i] = max(0.0, -res[i])
        else:  # "le"
            viol[i] = max(0.0, res[i])
    pinf = _digits(
        float(np.linalg.norm(viol)), 1.0 + float(np.linalg.norm(sdp.b))
    )

    cost = to_dense(sdp.cost, sdp.n)
    slack = -cost
    for yi, a in zip(y, sdp.constraints):
        scaled = yi * a.vals
        np.add.at(slack, (a.rows, a.cols), scaled)
        off = a.rows != a.cols
        np.add.at(slack, (a.cols[off], a.rows[off]), scaled[off])
    top = float(np.linalg.eigvalsh(slack)[-1])
    c_norm = float(np.max(np.abs(np.linalg.eigvalsh(cost))))
    dinf = _digits(top, 1.0 + c_norm)

    cx = dot_sym(sdp.cost, x)
    by = float(sdp.b @ y)
    gap = _digits(abs(cx - by), 1.0 + abs(cx) + abs(by))
    return Metrics(pinf=pinf, dinf=dinf, gap=gap, L=min(pinf, dinf, gap))


def _psd_factor(block, eps, label):
    """One bag of ``loop_complete_low_rank``: the projected block and a
    factor F with ``F @ F.T`` equal to it, by one ``eigh``."""
    vals, vecs = np.linalg.eigh(0.5 * (block + block.T))
    if vals.size == 0:
        return block, vecs
    top = float(vals[-1])
    cap = 100.0 * eps * (1.0 + top)
    if vals[0] < -cap:
        raise BlockNotPsd(
            f"{label} has eigenvalue {vals[0]:.3e}, beyond the PSD cap "
            f"{-cap:.3e}"
        )
    keep = vals > vals.size * np.finfo(float).eps * max(top, 0.0)
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    if vals[0] < 0.0:
        block = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return block, factor


def loop_complete_low_rank(blocks, td, eps=1e-8):
    """``complete_low_rank`` one bag at a time, root first: the oracle of
    the stacked one.  Each bag's new vertices get ``U_A = F_A Q``, where
    ``Q = Y Z^T`` from the SVD ``F_B^T U_B = Y S Z^T`` best maps the
    bag's separator rows onto the rows already placed."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if len(blocks) != td.ell:
        raise DimensionMismatch(f"{len(blocks)} blocks for {td.ell} bags")
    for j, bag in enumerate(td.bags):
        if blocks[j].shape != (len(bag), len(bag)):
            raise DimensionMismatch(
                f"block {j + 1} has shape {blocks[j].shape}, bag size "
                f"{len(bag)}"
            )

    u = np.zeros((td.n, td.omega))
    cols = 0  # columns of u in use so far
    for j in reversed(td.postorder()):  # parents before children
        bag = td.bags[j]
        sep = separator(td, j)
        own = [bag.index(v) for v in sep]
        blocks[j], f = _psd_factor(blocks[j], eps, f"bag {j + 1} block")
        if own:
            p = int(td.parent[j])
            par = [td.bags[p].index(v) for v in sep]
            diff = np.max(
                np.abs(blocks[j][own][:, own] - blocks[p][par][:, par])
            )
            if diff > OVERLAP_TOL:
                raise OverlapMismatch(
                    f"bags {j + 1} and {p + 1} disagree on their overlap by "
                    f"{diff:.3e}"
                )
        new = [i for i in range(len(bag)) if i not in own]
        if not new:
            continue
        # an empty separator (the root, or a disconnected attachment)
        # leaves every column free for reuse
        cols = max(cols, f.shape[1])
        y, _, zt = np.linalg.svd(f[own].T @ u[list(sep), :cols])
        u[np.asarray(bag)[new], :cols] = f[new] @ (y @ zt[: f.shape[1]])

    return LowRankFactor(U=u[:, :cols])


# --------------------------------------------------------------------------
# The per-matrix splitter and converter: oracles of the stacked ones
# --------------------------------------------------------------------------


def embedded_sum(pieces, td, order, matrix=0):
    """Dense sum of the pieces of one matrix of a stacked split, each
    embedded at its bag's rows and columns."""
    out = np.zeros((order, order))
    for e in np.flatnonzero(pieces.ids == matrix):
        bag = td.bags[pieces.assignment[e]]
        r, c = bag[pieces.rows[e]], bag[pieces.cols[e]]
        out[r, c] += pieces.vals[e]
        if r != c:
            out[c, r] += pieces.vals[e]
    return out


def split_one(mat, td, partition=None):
    """The stacked split of ``mat`` alone."""
    return split(stack_triplets([mat]), td, partition)


def cover_of(pieces):
    """Bags of a split one matrix's pieces use."""
    return np.unique(pieces.assignment).tolist()


def is_partially_separable(mat, td, partition=None):
    """True when the matrix fits inside a single bag (or is empty)."""
    try:
        pieces = split_one(mat, td, partition)
    except UncoverableEntry:
        return False
    return len(cover_of(pieces)) <= 1


@dataclass
class RowSplit:
    """The split of one matrix as a dict of per-bag pieces."""

    cover: list  # selected bag ids, ascending
    assignment: np.ndarray  # entry index -> bag id
    pieces: dict  # bag id -> SparseSymmetric in bag-local coordinates


def row_split(mat, td):
    """Split of one matrix by a walk over its entries: trigger bags in
    postorder, each selected bag claiming every unassigned entry it holds.
    Raises UncoverableEntry naming the first entry that fits in no bag."""
    owner = -np.ones(td.n, dtype=np.int64)
    for j in range(td.ell):
        p = int(td.parent[j])
        parent_set = set(td.bags[p]) if p != j else set()
        for v in td.bags[j]:
            if v not in parent_set:
                owner[v] = j
    depth, bag_sets = td.depth, [set(b) for b in td.bags]
    nnz = mat.rows.size
    assignment = -np.ones(nnz, dtype=np.int64)
    trigger = np.empty(nnz, dtype=np.int64)
    for e in range(nnz):
        r, c = int(mat.rows[e]), int(mat.cols[e])
        orow, ocol = int(owner[r]), int(owner[c])
        deep, other = (orow, c) if depth[orow] >= depth[ocol] else (ocol, r)
        if other not in bag_sets[deep]:
            raise UncoverableEntry(
                f"entry ({r + 1}, {c + 1}) lies in no bag of the decomposition"
            )
        trigger[e] = deep
    buckets, entries_at = {}, {}
    for e in range(nnz):
        buckets.setdefault(int(trigger[e]), []).append(e)
        r, c = int(mat.rows[e]), int(mat.cols[e])
        entries_at.setdefault(r, []).append(e)
        if c != r:
            entries_at.setdefault(c, []).append(e)
    cover = []
    for j in sorted(buckets, key=lambda b: td.post_index[b]):
        if not any(assignment[e] < 0 for e in buckets[j]):
            continue
        cover.append(j)
        for v in td.bags[j]:
            kept = []
            for e in entries_at.get(v, ()):
                if assignment[e] >= 0:
                    continue
                r, c = int(mat.rows[e]), int(mat.cols[e])
                if r in bag_sets[j] and c in bag_sets[j]:
                    assignment[e] = j
                else:
                    kept.append(e)
            if v in entries_at:
                entries_at[v] = kept
    pieces = {}
    for j in sorted(set(int(a) for a in assignment)):
        local_pos = {v: i for i, v in enumerate(td.bags[j])}
        sel = np.where(assignment == j)[0]
        pieces[j] = SparseSymmetric(
            order=len(td.bags[j]),
            rows=[local_pos[int(mat.rows[e])] for e in sel],
            cols=[local_pos[int(mat.cols[e])] for e in sel],
            vals=mat.vals[sel],
        )
    return RowSplit(cover=sorted(cover), assignment=assignment, pieces=pieces)


def _packed_pos(bag, u, v):
    iu, iv = bag.index(u), bag.index(v)
    hi, lo = max(iu, iv), min(iu, iv)
    return hi * (hi + 1) // 2 + lo


@dataclass
class AuxChain:
    """The rows of one separated constraint."""

    index: int  # original constraint index
    members: list  # support-tree bags in postorder (children before the root)
    root: int
    aux_coord: dict  # member bag -> z-coordinate of its chain scalar u_j
    row_range: tuple  # [start, end) rows in a_rows


@dataclass
class RowRecord:
    """What :func:`row_assemble` wrote each row for."""

    row_kind: list  # per A-row: ("plain", i) | ("aux", i, bag, is_root)
    block_of_row: list  # per G-row: sorted tuple of the bags it touches
    slack_coord: dict  # constraint index -> z coordinate of its slack
    aux_chains: list  # AuxChain per separated constraint
    segments: list  # z's cone: per bag ("psd", order), then its non-empty
    # ("free", chain scalars) and ("nonneg", slacks), bag after bag


def reference_steiner_closure(td: TreeDecomposition, bags: list) -> list:
    """Smallest connected set of tree nodes containing ``bags``; result is
    sorted root-first (ancestors before descendants along each path).  The
    per-row form ``convert.steiner_closure`` replaced, kept as the oracle
    of :func:`row_assemble`."""
    if not bags:
        return []
    depth = td.depth
    # lowest common ancestor of all bags
    anchor = bags[0]
    for other in bags[1:]:
        a, b = anchor, other
        while depth[a] > depth[b]:
            a = int(td.parent[a])
        while depth[b] > depth[a]:
            b = int(td.parent[b])
        while a != b:
            a = int(td.parent[a])
            b = int(td.parent[b])
        anchor = a
    members = {anchor}
    for j in bags:
        cur = j
        while cur != anchor:
            members.add(cur)
            cur = int(td.parent[cur])
    return sorted(members, key=lambda j: depth[j])


def reference_validate_support_tree(td: TreeDecomposition, members: list) -> int:
    """Check that ``members`` forms a connected subtree; returns its root
    (the member closest to the global root) or raises DisconnectedSupport.
    The per-row form ``convert.validate_support_tree`` replaced."""
    if not members:
        raise DisconnectedSupport("empty constraint support")
    member_set = set(members)
    roots = [
        j for j in members
        if int(td.parent[j]) == j or int(td.parent[j]) not in member_set
    ]
    if len(roots) != 1:
        raise DisconnectedSupport(
            f"constraint support spans {len(roots)} disconnected subtrees"
        )
    return roots[0]


def row_assemble(problem, td, with_aux):
    """``build_ctc`` (``with_aux=False``) or ``separate_with_aux`` by a
    loop over the constraints, each split by :func:`row_split`.  Returns
    the conversion and its :class:`RowRecord`."""
    post_index = td.post_index
    cost_split = row_split(problem.cost, td)
    piece_sets, members_of = [], []
    for a in problem.constraints:
        res = row_split(a, td)
        piece_sets.append(res.pieces)
        members_of.append(sorted(res.cover, key=post_index.__getitem__))

    aux_members = {}
    if with_aux:
        for i in range(problem.m):
            if not members_of[i]:
                continue
            members = reference_steiner_closure(td, list(members_of[i]))
            root_w = reference_validate_support_tree(td, members)
            if len(members) > 1:
                aux_members[i] = (
                    sorted(members, key=post_index.__getitem__), root_w
                )
    n_aux_at = [0] * td.ell
    aux_coord_local = {}
    for i, (members, root_w) in aux_members.items():
        for j in members:
            if j != root_w:
                p = int(td.parent[j])
                aux_coord_local[(i, j)] = n_aux_at[p]
                n_aux_at[p] += 1
    n_nn_at = [0] * td.ell
    slack_owner, slack_local = {}, {}
    for i, sense in enumerate(problem.senses):
        if sense == "eq":
            continue
        if i in aux_members:
            owner = aux_members[i][1]
        elif members_of[i]:
            owner = members_of[i][0]
        else:
            owner = td.root
        slack_owner[i] = owner
        slack_local[i] = n_nn_at[owner]
        n_nn_at[owner] += 1

    svec_start, aux_start, nn_start, segments, offset = [], [], [], [], 0
    for j in range(td.ell):
        o = len(td.bags[j])
        svec_start.append(offset)
        aux_start.append(offset + tri(o))
        nn_start.append(offset + tri(o) + n_aux_at[j])
        offset = nn_start[j] + n_nn_at[j]
        segments.append(("psd", o))
        if n_aux_at[j]:
            segments.append(("free", n_aux_at[j]))
        if n_nn_at[j]:
            segments.append(("nonneg", n_nn_at[j]))
    dim_z = offset
    aux_coord = {
        key: aux_start[int(td.parent[key[1]])] + local
        for key, local in aux_coord_local.items()
    }
    c_z = np.zeros(dim_z)
    for j, piece in cost_split.pieces.items():
        pos, vals = svec_coords(piece.rows, piece.cols, piece.vals)
        np.add.at(c_z, svec_start[j] + pos, vals)

    rows_i, cols_i, vals_i = [], [], []
    row_kind, block_of_row, rhs, slack_coord = [], [], [], {}
    dual_row = -np.ones(problem.m, dtype=np.int64)
    aux_chains = []

    def add_piece(row, j, piece):
        pos, vals = svec_coords(piece.rows, piece.cols, piece.vals)
        for p, v in zip(svec_start[j] + pos, vals):
            rows_i.append(row)
            cols_i.append(int(p))
            vals_i.append(float(v))

    row = 0
    for i in range(problem.m):
        sense = problem.senses[i]
        slack_sign = 0.0 if sense == "eq" else (-1.0 if sense == "ge" else 1.0)
        if i not in aux_members:
            touched = set()
            for j, piece in piece_sets[i].items():
                add_piece(row, j, piece)
                touched.add(j)
            if slack_sign:
                owner = slack_owner[i]
                coord = nn_start[owner] + slack_local[i]
                rows_i.append(row)
                cols_i.append(coord)
                vals_i.append(slack_sign)
                slack_coord[i] = coord
                touched.add(owner)
            row_kind.append(("plain", i))
            block_of_row.append(tuple(sorted(touched)))
            rhs.append(float(problem.b[i]))
            dual_row[i] = row
            row += 1
            continue
        members, root_w = aux_members[i]
        start = row
        children_w = {j: [] for j in members}
        for j in members:
            if j != root_w:
                children_w[int(td.parent[j])].append(j)
        for j in members:
            touched = {j}
            if j in piece_sets[i]:
                add_piece(row, j, piece_sets[i][j])
            for k in children_w[j]:
                rows_i.append(row)
                cols_i.append(aux_coord[(i, k)])
                vals_i.append(1.0)
            if j != root_w:
                rows_i.append(row)
                cols_i.append(aux_coord[(i, j)])
                vals_i.append(-1.0)
                touched.add(int(td.parent[j]))
                rhs.append(0.0)
            else:
                if slack_sign:
                    coord = nn_start[root_w] + slack_local[i]
                    rows_i.append(row)
                    cols_i.append(coord)
                    vals_i.append(slack_sign)
                    slack_coord[i] = coord
                rhs.append(float(problem.b[i]))
                dual_row[i] = row
            row_kind.append(("aux", i, j, j == root_w))
            block_of_row.append(tuple(sorted(touched)))
            row += 1
        aux_chains.append(
            AuxChain(
                index=i, members=list(members), root=root_w,
                aux_coord={j: aux_coord[(i, j)] for j in members if j != root_w},
                row_range=(start, row),
            )
        )
    a_rows = sp.csr_matrix(
        (
            np.array(vals_i, dtype=float),
            (np.array(rows_i, dtype=np.int64), np.array(cols_i, dtype=np.int64)),
        ),
        shape=(row, dim_z),
    )

    rows_n, cols_n, vals_n, n_block_of_row = [], [], [], []
    nrow = 0
    for j in td.postorder():
        p = int(td.parent[j])
        if p == j:
            continue
        sep = sorted(separator(td, j))
        for x, y in combinations_with_replacement(sep, 2):
            rows_n += [nrow, nrow]
            cols_n += [
                svec_start[j] + _packed_pos(td.bags[j], x, y),
                svec_start[p] + _packed_pos(td.bags[p], x, y),
            ]
            vals_n += [1.0, -1.0]
            n_block_of_row.append(tuple(sorted((j, p))))
            nrow += 1
    n_rows = sp.csr_matrix(
        (
            np.array(vals_n, dtype=float),
            (np.array(rows_n, dtype=np.int64), np.array(cols_n, dtype=np.int64)),
        ),
        shape=(nrow, dim_z),
    )
    ctc = ConvertedProblem(
        problem=problem,
        td=td,
        a_rows=a_rows,
        n_rows=n_rows,
        g_rhs=np.concatenate([np.array(rhs), np.zeros(nrow)]),
        c_z=c_z,
        dual_row_of_constraint=dual_row,
        order=np.array([len(bag) for bag in td.bags], dtype=np.int64),
        svec_start=np.array(svec_start, dtype=np.int64),
        n_aux=np.array(n_aux_at, dtype=np.int64),
        n_nn=np.array(n_nn_at, dtype=np.int64),
    )
    record = RowRecord(
        row_kind=row_kind,
        block_of_row=block_of_row + n_block_of_row,
        slack_coord=slack_coord,
        aux_chains=aux_chains,
        segments=segments,
    )
    return ctc, record


def reference_cone_tables(segments) -> SimpleNamespace:
    """The tables ``ConeOps`` holds for the cone that lists its
    ``("soc" | "psd" | "nonneg", size)`` segments in coordinate order, by
    one walk over the segments: ``soc_slices``, ``psd_groups`` (order ->
    one row of coordinates per matrix segment, orders by first
    appearance), ``nn_idx``, ``nu``, ``dim`` and the ``identity``.  The
    per-segment form ``ConeOps.__init__`` replaced."""
    soc_slices, psd_lists, nn_idx, ones = [], {}, [], []
    nu = 0.0
    start = 0
    for kind, size in segments:
        length = tri(size) if kind == "psd" else size
        coords = np.arange(start, start + length, dtype=np.int64)
        if kind == "soc":
            soc_slices.append(slice(start, start + length))
            ones.append(start)
            nu += 1.0
        elif kind == "psd":
            psd_lists.setdefault(size, []).append(coords)
            ones += [start + r * (r + 1) // 2 + r for r in range(size)]
            nu += size
        elif kind == "nonneg":
            nn_idx.append(coords)
            ones += coords.tolist()
            nu += size
        else:
            raise DimensionMismatch(
                "free segments cannot appear in a barrier cone"
            )
        start += length
    identity = np.zeros(start)
    identity[ones] = 1.0
    return SimpleNamespace(
        soc_slices=soc_slices,
        psd_groups={o: np.stack(rows) for o, rows in psd_lists.items()},
        nn_idx=(
            np.concatenate(nn_idx) if nn_idx else np.zeros(0, dtype=np.int64)
        ),
        nu=nu,
        dim=start,
        identity=identity,
    )


# ---------------------------------------------------------------------------
# SDPA reader reference: one entry line at a time
# ---------------------------------------------------------------------------


def _reference_content_lines(text: str):
    """(lineno, line) pairs with blanks and comment lines removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in '"*':
            continue
        yield lineno, line


def _reference_vector_tokens(line: str) -> list:
    return line.replace(",", " ").replace("{", " ").replace("}", " ").replace(
        "(", " "
    ).replace(")", " ").split()


def _reference_header_number(token: str, kind):
    """``kind(token)``, ``kind`` being ``int`` or ``float``, under the
    grammar of numpy's text reader: no digit-group underscores, ASCII
    digits only, and integers within int64."""
    if "_" in token or not token.isascii():
        raise ValueError(f"{token!r} is not a {kind.__name__}")
    value = kind(token)
    if kind is int and not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{token!r} overflows int64")
    return value


def reference_read_sdpa(source) -> SdpProblem:
    """The reference of ``frontends.read_sdpa``: it splits, converts with
    ``int()`` and ``float()``, range-checks and appends each entry line in
    turn, so its first failing line is the one it reports.  On entry
    lines, Python's ``int()`` and ``float()`` also accept digit-group
    underscores, non-ASCII digits and integers beyond int64, which
    ``read_sdpa`` rejects as non-numeric; header tokens are read under
    ``read_sdpa``'s grammar."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = list(_reference_content_lines(text))
    if len(lines) < 4:
        raise ParseError(
            f"line {lines[-1][0] if lines else 1}: "
            "file ends before the block-size and right-hand-side lines"
        )

    def intline(idx, what):
        lineno, line = lines[idx]
        toks = _reference_vector_tokens(line)
        if len(toks) != 1:
            raise ParseError(f"line {lineno}: expected a single {what}")
        try:
            return _reference_header_number(toks[0], int)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer {what}")

    m = intline(0, "constraint count")
    if m < 0:
        raise ParseError(f"line {lines[0][0]}: negative constraint count")
    nblocks = intline(1, "block count")
    if nblocks <= 0:
        raise ParseError(f"line {lines[1][0]}: block count must be positive")

    lineno, sizes_line = lines[2]
    toks = _reference_vector_tokens(sizes_line)
    if len(toks) != nblocks:
        raise ParseError(
            f"line {lineno}: expected {nblocks} block sizes, got {len(toks)}"
        )
    try:
        sizes = [_reference_header_number(t, int) for t in toks]
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer block size")
    if any(s == 0 for s in sizes):
        raise ParseError(f"line {lineno}: zero block size")
    if nblocks > 2 or sizes[0] < 0 or (nblocks == 2 and sizes[1] > 0):
        raise UnsupportedBlockStructure(
            "supported files have one PSD block, optionally followed by "
            f"one diagonal block; got sizes {sizes}"
        )
    n = sizes[0]
    lp_size = -sizes[1] if nblocks == 2 else 0

    lineno, b_line = lines[3]
    toks = _reference_vector_tokens(b_line)
    if len(toks) != m:
        raise ParseError(
            f"line {lineno}: expected {m} right-hand sides, got {len(toks)}"
        )
    try:
        b = np.array([_reference_header_number(t, float) for t in toks])
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric right-hand side")

    psd = ([], [], [], [])  # matno, i, j, value of each PSD-block entry
    lp_entries: dict = {}  # (matno, diagonal coordinate) -> value
    for lineno, line in lines[4:]:
        toks = line.split()
        if len(toks) != 5:
            raise ParseError(
                f"line {lineno}: expected 'matno blkno i j value', "
                f"got {len(toks)} fields"
            )
        try:
            matno, blkno, i, j = (int(t) for t in toks[:4])
            value = float(toks[4])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric entry fields")
        if not (0 <= matno <= m):
            raise ParseError(
                f"line {lineno}: matrix number {matno} outside [0, {m}]"
            )
        if not (1 <= blkno <= nblocks):
            raise ParseError(
                f"line {lineno}: block number {blkno} outside [1, {nblocks}]"
            )
        size = n if blkno == 1 else lp_size
        if not (1 <= i <= size and 1 <= j <= size):
            raise ParseError(
                f"line {lineno}: entry ({i}, {j}) outside block of size "
                f"{size}"
            )
        if blkno == 1:
            for column, x in zip(psd, (matno, i - 1, j - 1, value)):
                column.append(x)
        else:
            if i != j:
                raise ParseError(
                    f"line {lineno}: off-diagonal entry in a diagonal block"
                )
            key = (matno, i - 1)
            lp_entries[key] = lp_entries.get(key, 0.0) + value

    senses = ["eq"] * m
    coords: dict = {}  # constraint -> the diagonal coordinates it touches
    for (k, pos), val in lp_entries.items():
        if k == 0:
            raise UnsupportedBlockStructure(
                "the objective touches the diagonal block; senses cannot "
                "be reconstructed"
            )
        coords.setdefault(k, []).append((pos, val))
    users: dict = {}  # diagonal coordinate -> the constraints touching it
    for k in sorted(coords):
        if len(coords[k]) > 1:
            raise UnsupportedBlockStructure(
                f"constraint {k} touches several diagonal coordinates"
            )
        pos, val = coords[k][0]
        users.setdefault(pos, []).append((k, val))
    for pos, touching in users.items():
        if len(touching) != 1:
            raise UnsupportedBlockStructure(
                f"diagonal coordinate {pos + 1} is shared by "
                f"constraints {sorted(k for k, _ in touching)}"
            )
        k, val = touching[0]
        if val != 0.0:
            senses[k - 1] = "ge" if val < 0 else "le"

    # file matrix 0 is the cost, stored under id m after A_1..A_m
    ids = (np.array(psd[0], dtype=np.int64) - 1) % (m + 1)
    return SdpProblem(n, (ids, *psd[1:]), b, senses)
