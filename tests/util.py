"""Shared instance generators and reference implementations for the test
suite."""

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular

from treesdp.chordal import Graph, TreeDecomposition, decompose
from treesdp.convert import (
    AuxConstraint,
    AuxPlan,
    BlockLayout,
    ConeSpec,
    ConvertedProblem,
    steiner_closure,
    validate_support_tree,
)
from treesdp.errors import DimensionMismatch, NotInterior, UncoverableEntry
from treesdp.ipm import ConeOps, _positive_quadratic_root, _soc_g2
from treesdp.linalg import (
    Triplets,
    smat,
    smat_stack,
    svec,
    svec_stack,
    svec_coords,
    svec_scale,
    sym_kron_stack,
    tri,
    tri_indices,
)
from treesdp.model import SdpProblem
from treesdp.normal import TreeNormalSystem
from treesdp.recovery import SCORE_CAP, LowRankFactor, Metrics
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


def _dense_blocks(sys_, diag, off, mirror):
    """A normal system's group blocks as one dense matrix in the original
    coordinates; ``mirror`` also fills the upper triangle of each edge
    block."""
    out = np.zeros((sys_.dim, sys_.dim))
    for k, (sl, slab) in enumerate(zip(sys_.slices, sys_._slabs)):
        out[sl, sl] = diag[k]
        if slab is not None:
            out[slab, sl] = off[k]
            if mirror:
                out[sl, slab] = off[k].T
    inv = sys_._inv_perm
    return out[np.ix_(inv, inv)]


def h_dense(sys_):
    """A normal system's assembled H as a dense matrix."""
    return _dense_blocks(sys_, sys_.h_diag, sys_.h_off, mirror=True)


def reconstruct_dense(sys_):
    """L L^T of a normal system's factor as a dense matrix."""
    lower = _dense_blocks(sys_, sys_.l_diag, sys_.l_off, mirror=False)
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


def plain_row_coupling(ctc) -> set:
    """Symbolic sparsity of the row-space normal matrix ``G D^{-1} G^T``.

    Two rows couple exactly when they touch a common coordinate block
    (the block-diagonal scaling is dense within a block).  Returns the
    set of coupled unordered row pairs ``(i, j)`` with ``i < j``.
    Intended for moderate row counts; the set is materialized.
    """
    rows_by_block: dict = {}
    for r, blocks in enumerate(ctc.block_of_row):
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
    for j, blk in enumerate(ctc.blocks):
        bag = np.asarray(blk.bag)
        z[blk.svec_start:blk.svec_start + blk.svec_len] = svec(
            x_dense[np.ix_(bag, bag)]
        )
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
    for blk, mat in zip(ctc.blocks, mats, strict=True):
        per_order.setdefault(blk.order, []).append(mat)
    psd_w = {o: np.stack(group) for o, group in per_order.items()}
    return psd_w, np.concatenate([np.asarray(v, float) for v in slacks])


def unstack_scalings(ctc, psd_w, nn_w2):
    """The inverse of :func:`stack_scalings`: block j's scaling matrix and
    slack scalings, found by walking the blocks in block order."""
    seen = {}
    mats, slacks = [], []
    lo = 0
    for blk in ctc.blocks:
        k = seen.get(blk.order, 0)
        seen[blk.order] = k + 1
        mats.append(psd_w[blk.order][k])
        slacks.append(nn_w2[lo:lo + blk.n_nn])
        lo += blk.n_nn
    assert all(len(psd_w[o]) == k for o, k in seen.items())
    assert lo == len(nn_w2)
    return mats, slacks


def random_scaling_data(rng, ctc, sigma_range=(0.2, 2.0)):
    """Random interior scaling data for a converted problem's blocks, in
    the normal engine's format (see :func:`stack_scalings`)."""
    mats = []
    slacks = []
    for blk in ctc.blocks:
        o = blk.order
        q = rng.standard_normal((o, o))
        mats.append(q @ q.T + o * np.eye(o))
        slacks.append(np.abs(rng.standard_normal(blk.n_nn)) + 0.5)
    sigma = float(rng.uniform(*sigma_range))
    q_vec = rng.standard_normal(ctc.dim_z)
    return (sigma, q_vec) + stack_scalings(ctc, mats, slacks)


def dense_h_oracle(ctc, sigma, psd_w, nn_w2):
    """Independent dense construction of H = D_block + sigma * G^T G."""
    mats, slacks = unstack_scalings(ctc, psd_w, nn_w2)
    dim = ctc.dim_z
    d_block = np.zeros((dim, dim))
    for j, blk in enumerate(ctc.blocks):
        s0 = blk.svec_start
        t = blk.svec_len
        d_block[s0:s0 + t, s0:s0 + t] = sym_kron_matrix(mats[j], mats[j])
        for k in range(blk.n_nn):
            c = blk.nn_start + k
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


class ReferenceTreeNormal(TreeNormalSystem):
    """The block-tree normal engine over the engine's groups, one group at
    a time through ``scipy.linalg.solve_triangular``, each block a separate
    array, with the coordinate permutation worked out bag by bag, the
    scaling data unstacked per bag and G^T G summed entry by entry: the
    reference the engine's flat buffers and direct LAPACK calls must match
    bit for bit."""

    def __init__(self, dualized):
        super().__init__(dualized)
        blocks = self.ctc.blocks
        # bag -> its group and its first row inside the group block
        self.group_of, self.at = {}, {}
        self.widths, perm = [], []
        for k, members in enumerate(self.groups):
            w = 0
            for j in members:
                self.group_of[j], self.at[j] = k, w
                w += blocks[j].width
                perm.extend(range(blocks[j].svec_start, blocks[j].end))
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
        self.gtg_diag, self.gtg_off = self._reference_gram()

    def _reference_gram(self):
        """Diagonal and edge blocks of G^T G, one entry at a time."""
        blocks = self.ctc.blocks
        gtg = (self.dualized.g_csr.T @ self.dualized.g_csr).tocoo()
        block_of_coord = np.repeat(
            np.arange(self.ell), [blk.width for blk in blocks]
        )
        diag = [np.zeros((w, w)) for w in self.widths]
        off = [
            None if b is None else np.zeros((blocks[b].width, w))
            for b, w in zip(self.attach, self.widths)
        ]
        for r, c, v in zip(gtg.row, gtg.col, gtg.data):
            a, b = int(block_of_coord[r]), int(block_of_coord[c])
            ga, gb = self.group_of[a], self.group_of[b]
            lr = r - blocks[a].svec_start
            lc = self.at[b] + c - blocks[b].svec_start
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
        for j, blk in enumerate(self.ctc.blocks):
            groups.setdefault(blk.order, []).append(j)
        for o, idxs in groups.items():
            kron = sym_kron_stack(np.stack([mats[j] for j in idxs]))
            t = tri(o)
            for pos, j in enumerate(idxs):
                s = self.at[j]
                h_diag[self.group_of[j]][s:s + t, s:s + t] += kron[pos]
        for j, blk in enumerate(self.ctc.blocks):
            lo = self.at[j] + blk.svec_len + blk.n_aux
            sub = h_diag[self.group_of[j]][lo:lo + blk.n_nn, lo:lo + blk.n_nn]
            sub[np.diag_indices(blk.n_nn)] += slacks[j]
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
        for k, b in enumerate(self.attach):
            lk = np.linalg.cholesky(work[k])
            l_diag[k] = lk
            if b is not None:
                r = solve_triangular(lk, self.h_off[k].T, lower=True).T
                l_off[k] = r
                s, wb = self.at[b], self.ctc.blocks[b].width
                work[self.group_of[b]][s:s + wb, s:s + wb] -= r @ r.T
        self.l_diag = l_diag
        self.l_off = l_off

    def _rows(self, k):
        """Group k's slice of the permuted coordinates."""
        lo = sum(self.widths[:k])
        return slice(lo, lo + self.widths[k])

    def _attach_rows(self, k):
        """The permuted coordinates of group k's attach bag."""
        b = self.attach[k]
        lo = self._rows(self.group_of[b]).start + self.at[b]
        return slice(lo, lo + self.ctc.blocks[b].width)

    def _unpermute(self, x, single):
        out = np.empty_like(x)
        out[self.ref_perm] = x
        return out[:, 0] if single else out

    def solve_h(self, rhs):
        cols, single = self._as_columns(rhs)
        x = cols[self.ref_perm]
        for k, b in enumerate(self.attach):
            sl = self._rows(k)
            yk = solve_triangular(self.l_diag[k], x[sl], lower=True)
            x[sl] = yk
            if b is not None:
                x[self._attach_rows(k)] -= self.l_off[k] @ yk
        for k in reversed(range(len(self.groups))):
            sl = self._rows(k)
            t = x[sl]
            if self.attach[k] is not None:
                t = t - self.l_off[k].T @ x[self._attach_rows(k)]
            x[sl] = solve_triangular(self.l_diag[k], t, lower=True, trans="T")
        return self._unpermute(x, single)

    def apply_h(self, x):
        v, single = self._as_columns(x)
        v = v[self.ref_perm]
        out = np.zeros_like(v)
        for k, b in enumerate(self.attach):
            sl = self._rows(k)
            out[sl] += self.h_diag[k] @ v[sl]
            if b is not None:
                slp = self._attach_rows(k)
                out[slp] += self.h_off[k] @ v[sl]
                out[sl] += self.h_off[k].T @ v[slp]
        return self._unpermute(out, single)


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


def row_assemble(problem, td, with_aux):
    """``build_ctc`` (``with_aux=False``) or ``separate_with_aux`` by a
    loop over the constraints, each split by :func:`row_split`."""
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
            members = steiner_closure(td, list(members_of[i]))
            root_w = validate_support_tree(td, members)
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

    blocks, segments, offset = [], [], 0
    for j in range(td.ell):
        o = len(td.bags[j])
        blk = BlockLayout(
            bag=td.bags[j], order=o, svec_start=offset, n_aux=n_aux_at[j],
            aux_start=offset + tri(o), n_nn=n_nn_at[j],
            nn_start=offset + tri(o) + n_aux_at[j],
        )
        blocks.append(blk)
        offset = blk.end
        segments.append(("psd", o))
        if blk.n_aux:
            segments.append(("free", blk.n_aux))
        if blk.n_nn:
            segments.append(("nonneg", blk.n_nn))
    dim_z = offset
    aux_coord = {
        key: blocks[int(td.parent[key[1]])].aux_start + local
        for key, local in aux_coord_local.items()
    }
    c_z = np.zeros(dim_z)
    for j, piece in cost_split.pieces.items():
        pos, vals = svec_coords(piece.rows, piece.cols, piece.vals)
        np.add.at(c_z, blocks[j].svec_start + pos, vals)

    rows_i, cols_i, vals_i = [], [], []
    row_kind, block_of_row, rhs, slack_coord = [], [], [], {}
    dual_row = -np.ones(problem.m, dtype=np.int64)
    aux_constraints = []

    def add_piece(row, j, piece):
        pos, vals = svec_coords(piece.rows, piece.cols, piece.vals)
        for p, v in zip(blocks[j].svec_start + pos, vals):
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
                coord = blocks[owner].nn_start + slack_local[i]
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
                    coord = blocks[root_w].nn_start + slack_local[i]
                    rows_i.append(row)
                    cols_i.append(coord)
                    vals_i.append(slack_sign)
                    slack_coord[i] = coord
                rhs.append(float(problem.b[i]))
                dual_row[i] = row
            row_kind.append(("aux", i, j, j == root_w))
            block_of_row.append(tuple(sorted(touched)))
            row += 1
        aux_constraints.append(
            AuxConstraint(
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
        sep = sorted(td.separator(j))
        for x, y in combinations_with_replacement(sep, 2):
            rows_n += [nrow, nrow]
            cols_n += [
                blocks[j].svec_start + _packed_pos(td.bags[j], x, y),
                blocks[p].svec_start + _packed_pos(td.bags[p], x, y),
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
    return ConvertedProblem(
        problem=problem,
        td=td,
        blocks=blocks,
        a_rows=a_rows,
        n_rows=n_rows,
        g_rhs=np.concatenate([np.array(rhs), np.zeros(nrow)]),
        c_z=c_z,
        cone=ConeSpec(segments=tuple(segments)),
        row_kind=row_kind,
        block_of_row=block_of_row + n_block_of_row,
        slack_coord=slack_coord,
        aux_plan=AuxPlan(constraints=aux_constraints) if with_aux else None,
        dual_row_of_constraint=dual_row,
    )
