"""Shared instance generators and reference implementations for the test
suite."""

import numpy as np
from scipy.linalg import solve_triangular

from treesdp.chordal import Graph, TreeDecomposition, decompose, sparsity_graph
from treesdp.ipm import ConeOps, _positive_quadratic_root, _soc_g2
from treesdp.linalg import (
    SparseSymmetric,
    smat,
    smat_stack,
    svec,
    svec_stack,
    sym_kron_stack,
    tri,
)
from treesdp.model import SdpProblem
from treesdp.normal import TreeNormalSystem
from treesdp.recovery import SCORE_CAP, LowRankFactor, Metrics


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
    b = np.array([a.dot_sym(x0) for a in constraints])
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
        cost_dense += y0[i] * a.to_dense()
    # keep only entries inside the aggregate pattern (guaranteed by support)
    cost = SparseSymmetric.from_dense(cost_dense)
    problem = SdpProblem(cost=cost, constraints=constraints, b=b, senses=senses)
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
    return SdpProblem(
        cost=base.cost,
        constraints=base.constraints + [wide],
        b=np.concatenate([base.b, [1.0]]),
        senses=base.senses + ["eq"],
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
    return SdpProblem(cost=cost, constraints=constraints, b=b)


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
    from treesdp.linalg import sym_kron_matrix

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
    return SdpProblem(
        cost=c_mat, constraints=[a_mat], b=np.array([1.0])
    )


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

    res = np.array([a.dot_sym(x) for a in sdp.constraints]) - sdp.b
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

    slack = -sdp.cost.to_dense()
    for yi, a in zip(y, sdp.constraints):
        scaled = yi * a.vals
        np.add.at(slack, (a.rows, a.cols), scaled)
        off = a.rows != a.cols
        np.add.at(slack, (a.cols[off], a.rows[off]), scaled[off])
    top = float(np.linalg.eigvalsh(slack)[-1])
    c_norm = float(np.max(np.abs(np.linalg.eigvalsh(sdp.cost.to_dense()))))
    dinf = _digits(top, 1.0 + c_norm)

    cx = sdp.cost.dot_sym(x)
    by = float(sdp.b @ y)
    gap = _digits(abs(cx - by), 1.0 + abs(cx) + abs(by))
    return Metrics(pinf=pinf, dinf=dinf, gap=gap, L=min(pinf, dinf, gap))
