"""Conversion of a sparse SDP into a block-tree form and its dualization.

The clique-tree conversion replaces the single PSD variable X by one PSD
block per bag, ties shared entries together with overlap (selection) rows,
and rewrites each constraint on the split pieces.  Optionally, a constraint
whose pieces span several bags is *separated*: one row per support-tree bag,
chained by free auxiliary scalars, so every row touches at most two
tree-adjacent blocks.  Dualization embeds the converted problem's dual into a
second-order cone program whose normal equations inherit the tree block
structure.

A :class:`ConvertedProblem` is its matrices (constraint rows, overlap
rows, cost, right-hand side) plus four per-bag integer arrays, ``order``,
``svec_start``, ``n_aux`` and ``n_nn``, from which the rest of the layout
of z is derived.  It keeps no per-row bookkeeping: the bags a row touches
are those of its stored entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .chordal import TreeDecomposition, decompose, sparsity_graph
from .errors import (
    DimensionMismatch, DisconnectedSupport, InvalidSplit, UncoverableEntry
)
from .linalg import (
    Triplets, ranges, smat_stack, sorted_lookup, sorted_unique, svec_coords,
    tri,
)
from .model import SdpProblem
from .splitting import SplitResult, build_unique_partition, split

# --------------------------------------------------------------------------
# Cones
# --------------------------------------------------------------------------

KINDS = ("soc", "psd", "nonneg", "free")


@dataclass(frozen=True)
class ConeSpec:
    """Ordered product of cone segments matching a coordinate layout.

    Segment kinds: ``soc`` (second-order cone of the given dimension),
    ``psd`` (PSD matrices of the given order, covering tri(order)
    coordinates), ``nonneg`` (nonnegative orthant), ``free``.
    """

    segments: tuple

    def __post_init__(self):
        for kind, size in self.segments:
            if kind not in KINDS:
                raise DimensionMismatch(f"unknown cone kind {kind!r}")
            if size < 0:
                raise DimensionMismatch("negative segment size")

    def coord_len(self, kind, size) -> int:
        return tri(size) if kind == "psd" else size

    @property
    def dim(self) -> int:
        return sum(self.coord_len(k, s) for k, s in self.segments)

    def slices(self) -> list:
        out = []
        start = 0
        for kind, size in self.segments:
            ln = self.coord_len(kind, size)
            out.append((kind, size, slice(start, start + ln)))
            start += ln
        return out

    def nu(self) -> float:
        """Barrier parameter: PSD order + orthant size + 1 per SOC."""
        total = 0.0
        for kind, size in self.segments:
            if kind == "soc":
                total += 1.0
            elif kind == "psd":
                total += size
            elif kind == "nonneg":
                total += size
        return total


# --------------------------------------------------------------------------
# Split verification
# --------------------------------------------------------------------------


def verify_split(
    stack: Triplets, pieces: SplitResult, td: TreeDecomposition
) -> None:
    """Exact check that the embedded per-bag pieces sum to the stacked
    matrices; raises InvalidSplit on disagreement.

    The pieces are summed per stored position, and every stored entry must
    match its sum to ``1e-9 * (1 + |value|)``; a piece entry outside the
    stored pattern of its matrix is rejected.  One binary search per piece
    entry over the stored entries."""
    n = td.n
    start = td.bag_start[pieces.assignment]
    # bags are sorted, so lower storage maps to lower storage
    rows = td.members[start + pieces.rows]
    cols = td.members[start + pieces.cols]
    stored = (stack.ids * n + stack.rows) * n + stack.cols  # ascending
    key = (pieces.ids * n + rows) * n + cols
    pos, inside = sorted_lookup(stored, key)
    if not inside.all():
        e = np.flatnonzero(~inside)[0]
        raise InvalidSplit(
            f"split piece of bag {pieces.assignment[e] + 1} stores entry "
            f"({rows[e] + 1}, {cols[e] + 1}), which the matrix does not"
        )
    got = np.bincount(pos, weights=pieces.vals, minlength=stack.vals.size)
    want = stack.vals
    wrong = np.flatnonzero(np.abs(got - want) > 1e-9 * (1.0 + np.abs(want)))
    if wrong.size:
        e = wrong[0]
        raise InvalidSplit(
            f"split pieces sum to {float(got[e])!r} at entry "
            f"({stack.rows[e] + 1}, {stack.cols[e] + 1}), where the matrix "
            f"stores {float(want[e])!r}"
        )


# --------------------------------------------------------------------------
# Support trees
# --------------------------------------------------------------------------


def steiner_closure(td: TreeDecomposition, bags: list) -> list:
    """Smallest connected set of tree nodes containing ``bags``; result is
    sorted root-first (ancestors before descendants along each path)."""
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


def validate_support_tree(td: TreeDecomposition, members: list) -> int:
    """Check that ``members`` forms a connected subtree; returns its root
    (the member closest to the global root) or raises DisconnectedSupport."""
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


# --------------------------------------------------------------------------
# Converted problem
# --------------------------------------------------------------------------


@dataclass
class ConvertedProblem:
    """Block-tree form: min <c_z, z> s.t. A z = b-part, N z = 0.

    z is laid out bag by bag, and bag j's block is [svec(X_j) | aux_j |
    slacks_j]: the packed matrix of order ``order[j]`` from coordinate
    ``svec_start[j]``, then ``n_aux[j]`` free chain scalars, then
    ``n_nn[j]`` orthant slacks.  Every other layout quantity is derived
    from these four per-bag arrays."""

    problem: SdpProblem
    td: TreeDecomposition
    a_rows: sp.csr_matrix
    n_rows: sp.csr_matrix
    g_rhs: np.ndarray  # rhs for [A; N] (zeros on the N part)
    c_z: np.ndarray
    cone: ConeSpec
    dual_row_of_constraint: np.ndarray  # constraint -> representative A-row
    order: np.ndarray
    svec_start: np.ndarray
    n_aux: np.ndarray
    n_nn: np.ndarray

    @property
    def aux_start(self) -> np.ndarray:
        return self.svec_start + tri(self.order)

    @property
    def nn_start(self) -> np.ndarray:
        return self.aux_start + self.n_aux

    @property
    def width(self) -> np.ndarray:
        return tri(self.order) + self.n_aux + self.n_nn

    @property
    def dim_z(self) -> int:
        return int(self.width.sum())

    def g_matrix(self) -> sp.csr_matrix:
        return sp.vstack([self.a_rows, self.n_rows], format="csr")

    def nonaux_coords(self) -> np.ndarray:
        keep = np.ones(self.dim_z, dtype=bool)
        keep[ranges(self.aux_start, self.n_aux)] = False
        return np.flatnonzero(keep)

    def extract_bag_matrices(self, z: np.ndarray) -> list:
        """The bag matrices of z in bag order, by one ``smat_stack`` per
        bag order."""
        lengths = tri(self.order)
        out = [None] * lengths.size
        for t in np.unique(lengths).tolist():
            grp = np.flatnonzero(lengths == t)
            mats = smat_stack(z[self.svec_start[grp, None] + np.arange(t)])
            for j, mat in zip(grp.tolist(), mats):
                out[j] = mat
        return out


def _assemble(
    problem: SdpProblem, td: TreeDecomposition | None, with_aux: bool
) -> ConvertedProblem:
    if td is None:
        td = decompose(sparsity_graph(problem.n, problem.triplets))
    m, ell = problem.m, td.ell
    post_index = td.post_index
    partition = build_unique_partition(td)
    stack = problem.triplets
    try:
        pieces = split(stack, td, partition)
    except UncoverableEntry:
        # an uncoverable entry of C is named before those of the A_i
        split(problem.cost, td, partition)
        raise
    verify_split(stack, pieces, td)
    ids, bag = pieces.ids, pieces.assignment
    k = int(np.searchsorted(ids, m))  # the cost's entries come last

    # ---- covers: the bags of each constraint's pieces --------------------
    cover_row, cover_bag = np.divmod(
        sorted_unique(ids[:k] * ell + bag[:k]), ell
    )
    n_cover = np.bincount(cover_row, minlength=m)
    cover_start = np.cumsum(n_cover) - n_cover
    # owner of the slack: the one bag of a single-bag cover, the root for
    # an empty one
    home = np.full(m, td.root, dtype=np.int64)
    home[n_cover > 0] = cover_bag[cover_start[n_cover > 0]]
    wide = {}  # constraint with several cover bags -> them in postorder
    for i in np.flatnonzero(n_cover > 1).tolist():
        cover = cover_bag[cover_start[i]:cover_start[i] + n_cover[i]]
        wide[i] = sorted(cover.tolist(), key=post_index.__getitem__)

    # ---- aux chains ------------------------------------------------------
    aux_members = {}
    n_aux = [0] * ell
    aux_local = {}  # (i, member bag) -> local index in parent block
    for i, cover in wide.items():
        if not with_aux:
            home[i] = cover[0]
            continue
        members = steiner_closure(td, cover)
        root_w = validate_support_tree(td, members)
        aux_members[i] = (sorted(members, key=post_index.__getitem__), root_w)
        home[i] = root_w
        for j in aux_members[i][0]:
            if j != root_w:
                p = int(td.parent[j])
                aux_local[(i, j)] = n_aux[p]
                n_aux[p] += 1

    senses = np.asarray(problem.senses, dtype=str)
    slack_i = np.flatnonzero(senses != "eq")
    slack_owner = home[slack_i]

    # ---- layout ----------------------------------------------------------
    order = np.diff(td.bag_start)
    n_aux = np.asarray(n_aux, dtype=np.int64)
    n_nn = np.bincount(slack_owner, minlength=ell)
    ends = np.cumsum(tri(order) + n_aux + n_nn)
    nn_start = ends - n_nn
    aux_start = nn_start - n_aux
    svec_start = aux_start - tri(order)
    segments = []
    for o, a, nn in zip(order.tolist(), n_aux.tolist(), n_nn.tolist()):
        segments.append(("psd", o))
        if a:
            segments.append(("free", a))
        if nn:
            segments.append(("nonneg", nn))
    dim_z = int(ends[-1]) if ell else 0
    aux_coord = {
        key: int(aux_start[td.parent[key[1]]]) + local
        for key, local in aux_local.items()
    }
    # each slack's rank among those of its owner block, in constraint order
    by_owner = np.argsort(slack_owner, kind="stable")
    slack_coord = np.empty_like(by_owner)
    slack_coord[by_owner] = np.arange(by_owner.size)
    slack_coord += (ends - np.cumsum(n_nn))[slack_owner]

    # ---- cost vector -----------------------------------------------------
    pos, val = svec_coords(pieces.rows, pieces.cols, pieces.vals)
    col = svec_start[bag] + pos
    c_z = np.zeros(dim_z)
    np.add.at(c_z, col[k:], val[k:])

    # ---- constraint rows -------------------------------------------------
    # a plain constraint is one row; an aux chain has one row per member
    # bag, in postorder, and its root's row carries b_i and the slack
    rows_per = np.ones(m, dtype=np.int64)
    rank = np.zeros(k, dtype=np.int64)  # entry -> its row within the chain
    dual_row = np.zeros(m, dtype=np.int64)
    # u_j enters the row of j with -1 and the row of its parent with +1
    chain_i, chain_r, chain_c = [], [], []
    for i, (members, root_w) in aux_members.items():
        at = {j: r for r, j in enumerate(members)}
        s, t = np.searchsorted(ids[:k], [i, i + 1])
        rank[s:t] = [at[j] for j in bag[s:t].tolist()]
        rows_per[i] = len(members)
        dual_row[i] = at[root_w]
        for j in members:
            if j != root_w:
                chain_i += [i, i]
                chain_r += [at[j], at[int(td.parent[j])]]
                chain_c += [aux_coord[(i, j)]] * 2
    row_of = np.cumsum(rows_per) - rows_per  # first row of each constraint
    dual_row += row_of
    rhs = np.zeros(int(rows_per.sum()))
    rhs[dual_row] = problem.b
    chain_i, chain_r, chain_c = (
        np.array(x, dtype=np.int64) for x in (chain_i, chain_r, chain_c)
    )
    a_rows = sp.csr_matrix(
        (
            np.concatenate([
                val[:k],
                np.where(senses[slack_i] == "ge", -1.0, 1.0),
                np.tile([-1.0, 1.0], chain_i.size // 2),
            ]),
            (
                np.concatenate([
                    row_of[ids[:k]] + rank,
                    dual_row[slack_i],
                    row_of[chain_i] + chain_r,
                ]),
                np.concatenate([col[:k], slack_coord, chain_c]),
            ),
        ),
        shape=(rhs.size, dim_z),
    )

    n_rows = _overlap_rows(td, svec_start, dim_z)
    return ConvertedProblem(
        problem=problem,
        td=td,
        a_rows=a_rows,
        n_rows=n_rows,
        g_rhs=np.concatenate([rhs, np.zeros(n_rows.shape[0])]),
        c_z=c_z,
        cone=ConeSpec(segments=tuple(segments)),
        dual_row_of_constraint=dual_row,
        order=order,
        svec_start=svec_start,
        n_aux=n_aux,
        n_nn=n_nn,
    )


def _overlap_rows(td, svec_start, dim_z):
    """Rows X_j[x, y] - X_p[x, y] = 0 over the separator pairs x <= y of
    each non-root bag j and its parent p, bags in postorder and pairs in
    lexicographic order."""
    post = np.asarray(td.postorder(), dtype=np.int64)
    start = td.bag_start
    at = ranges(start[post], np.diff(start)[post])
    at = at[td.parent_pos[at] >= 0]  # separator entries, child after child
    child = td.bag_of[at]
    # pairs (a, b), a <= b, of separator entries of one child
    rank = np.asarray(td.post_index, dtype=np.int64)[child]
    count = np.cumsum(np.bincount(rank, minlength=td.ell))[rank]
    count -= np.arange(at.size)
    a = np.repeat(np.arange(at.size), count)
    b = ranges(np.arange(at.size), count)
    cols = [
        svec_start[blk[a]] + local[b] * (local[b] + 1) // 2 + local[a]
        for blk, local in (
            (child, at - start[child]),
            (td.parent[child], td.parent_pos[at]),
        )
    ]
    rows = np.arange(a.size)
    return sp.csr_matrix(
        (
            np.repeat([1.0, -1.0], a.size),
            (np.concatenate([rows, rows]), np.concatenate(cols)),
        ),
        shape=(a.size, dim_z),
    )


def build_ctc(
    problem: SdpProblem, td: TreeDecomposition | None = None
) -> ConvertedProblem:
    """Clique-tree conversion without auxiliary separation: each constraint
    stays one row over its split pieces."""
    return _assemble(problem, td, with_aux=False)


def separate_with_aux(
    problem: SdpProblem, td: TreeDecomposition | None = None
) -> ConvertedProblem:
    """Clique-tree conversion with auxiliary chain variables: a constraint
    whose pieces span several bags becomes one row per support-tree bag,
    telescoped by free scalars stored in the parent block, so every row
    touches only tree-adjacent blocks."""
    return _assemble(problem, td, with_aux=True)


# --------------------------------------------------------------------------
# Dualization
# --------------------------------------------------------------------------


@dataclass
class DualizedProblem:
    """min <c_t, x> s.t. M x = b_t over SOC(1+f) x K2, where
    M = [0 | -G^T | E~], b_t = c_z, c_t = (0, g_rhs, 0)."""

    ctc: ConvertedProblem
    g_csr: sp.csr_matrix
    nonaux: np.ndarray
    cone_x: ConeSpec
    gt_csr: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        # G^T in CSR, built once; each row lists its entries by increasing
        # row of G, the order the CSC product with g_csr.T sums them in, so
        # products with it give the same floats
        self.gt_csr = self.g_csr.T.tocsr()

    @property
    def f(self) -> int:
        return self.g_csr.shape[0]

    @property
    def dim_y(self) -> int:
        return self.g_csr.shape[1]

    @property
    def k2(self) -> int:
        return int(self.nonaux.size)

    @property
    def dim_x(self) -> int:
        return 1 + self.f + self.k2

    @property
    def b_t(self) -> np.ndarray:
        return self.ctc.c_z

    def c_t(self) -> np.ndarray:
        out = np.zeros(self.dim_x)
        out[1:1 + self.f] = self.ctc.g_rhs
        return out

    def apply_m(self, x: np.ndarray) -> np.ndarray:
        """M x = -G^T x_1 + E~ x_2 (a vector over the z coordinates), for a
        vector or a batch of rows."""
        x1 = x[..., 1:1 + self.f]
        x2 = x[..., 1 + self.f:]
        out = -(self.gt_csr @ x1.T).T
        out[..., self.nonaux] += x2
        return out

    def apply_mt(self, y: np.ndarray) -> np.ndarray:
        """M^T y = (0, -G y, gather of y on non-aux coords), for a vector or
        a batch of rows."""
        out = np.zeros(y.shape[:-1] + (self.dim_x,))
        out[..., 1:1 + self.f] = -(self.g_csr @ y.T).T
        out[..., 1 + self.f:] = y[..., self.nonaux]
        return out

    # ---- solution readout -------------------------------------------------
    def ctc_primal(self, y: np.ndarray, tau: float) -> np.ndarray:
        return -y / tau

    def ctc_dual(self, x: np.ndarray, tau: float) -> np.ndarray:
        """The multipliers u of the rows of G."""
        return -x[1:1 + self.f] / tau


def dualize(ctc: ConvertedProblem) -> DualizedProblem:
    g = ctc.g_matrix()
    nonaux = ctc.nonaux_coords()
    segments = [("soc", 1 + g.shape[0])]
    for kind, size in ctc.cone.segments:
        if kind == "free":
            continue
        segments.append((kind, size))
    return DualizedProblem(
        ctc=ctc,
        g_csr=g,
        nonaux=nonaux,
        cone_x=ConeSpec(segments=tuple(segments)),
    )
