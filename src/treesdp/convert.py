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
of z is derived, its cone included (block j of the :class:`ConeSpec` is
bag j).  It keeps no per-row bookkeeping: the bags a row touches are those
of its stored entries.
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


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """The cone of a coordinate layout: a second-order cone of dimension
    ``soc`` (0 for none), then block after block.  Block j is a PSD matrix
    of order ``order[j]`` (tri(order[j]) coordinates), then ``n_free[j]``
    free scalars, then ``n_nn[j]`` nonnegative orthant coordinates."""

    soc: int
    order: np.ndarray  # int64, one entry per block, as are n_free, n_nn
    n_free: np.ndarray
    n_nn: np.ndarray

    def __post_init__(self):
        names = ("order", "n_free", "n_nn")
        sizes = [np.asarray(getattr(self, k), dtype=np.int64) for k in names]
        if sizes[0].ndim != 1 or any(a.shape != sizes[0].shape for a in sizes):
            raise DimensionMismatch("order, n_free and n_nn differ in length")
        if self.soc < 0 or any((a < 0).any() for a in sizes):
            raise DimensionMismatch("negative cone size")
        object.__setattr__(self, "soc", int(self.soc))
        for name, a in zip(names, sizes):
            object.__setattr__(self, name, a)

    @property
    def width(self) -> np.ndarray:
        """Block -> its number of coordinates."""
        return tri(self.order) + self.n_free + self.n_nn

    @property
    def block_start(self) -> np.ndarray:
        """Block -> its first coordinate."""
        width = self.width
        return self.soc + np.cumsum(width) - width

    @property
    def dim(self) -> int:
        return int(self.soc + self.width.sum())

    def nu(self) -> float:
        """Barrier parameter: 1 for the SOC, plus PSD orders and orthant
        size."""
        return float((self.soc > 0) + self.order.sum() + self.n_nn.sum())


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


def steiner_closure(td: TreeDecomposition, row: np.ndarray, bag: np.ndarray):
    """The support tree of each row's bags, given as (row, bag) pairs: the
    smallest connected set of tree nodes holding them, as (row, bag) pairs
    sorted by row and then postorder.

    The rows climb in lockstep: in each row whose bags have not met, the
    deepest bags step to their parents.  A bag whose parent is among its
    row's bags leaves the climb, since its path goes on from there."""
    ell, depth, post = td.ell, td.depth, td.post_index
    key = sorted_unique(row * ell + bag)
    found = [key]
    while key.size:
        row, bag = np.divmod(key, ell)
        up = td.parent[bag]
        _, joined = sorted_lookup(key, row * ell + up)
        keep = ~joined | (up == bag)
        row, bag, up = row[keep], bag[keep], up[keep]
        start = np.flatnonzero(np.diff(row, prepend=-1))
        size = np.diff(start, append=row.size)
        apart = np.repeat(size > 1, size)
        deepest = np.repeat(np.maximum.reduceat(depth[bag], start), size)
        step = apart & (depth[bag] == deepest)
        found.append(row[step] * ell + up[step])
        key = sorted_unique(row[apart] * ell + np.where(step, up, bag)[apart])
    row, bag = np.divmod(sorted_unique(np.concatenate(found)), ell)
    order = np.argsort(row * ell + post[bag])
    return row[order], bag[order]


def validate_support_tree(
    td: TreeDecomposition, row: np.ndarray, bag: np.ndarray
) -> np.ndarray:
    """Check that each row's bags, given as (row, bag) pairs sorted by row,
    form a connected subtree, that is, that exactly one of them, its root,
    has its parent outside them.  Returns the roots' positions, row by row,
    or raises DisconnectedSupport."""
    ell = td.ell
    up = td.parent[bag]
    _, inside = sorted_lookup(np.sort(row * ell + bag), row * ell + up)
    root = ~inside | (up == bag)
    start = np.flatnonzero(np.diff(row, prepend=-1))
    count = np.add.reduceat(root.astype(np.int64), start)
    bad = np.flatnonzero(count != 1)
    if bad.size:
        raise DisconnectedSupport(
            f"constraint support spans {count[bad[0]]} disconnected subtrees"
        )
    return np.flatnonzero(root)


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
    dual_row_of_constraint: np.ndarray  # constraint -> representative A-row
    order: np.ndarray
    svec_start: np.ndarray
    n_aux: np.ndarray
    n_nn: np.ndarray

    @property
    def cone(self) -> ConeSpec:
        """Block j is bag j: its matrix, chain scalars and slacks."""
        return ConeSpec(0, self.order, self.n_aux, self.n_nn)

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

    # ---- covers: the bags of each constraint's pieces, in postorder ------
    post = td.post_index
    entry_key = ids[:k] * ell + post[bag[:k]]
    cover_row, cover_bag = np.divmod(sorted_unique(entry_key), ell)
    cover_bag = td.postorder()[cover_bag]
    n_cover = np.bincount(cover_row, minlength=m)
    # owner of the slack: the first cover bag in postorder, the root for an
    # empty cover; with aux chains, the root of a wide cover's support tree
    home = np.full(m, td.root, dtype=np.int64)
    home[n_cover > 0] = cover_bag[(np.cumsum(n_cover) - n_cover)[n_cover > 0]]
    tree_row = tree_bag = tree_root = np.zeros(0, dtype=np.int64)
    wide = n_cover[cover_row] > 1
    if with_aux and wide.any():
        tree_row, tree_bag = steiner_closure(
            td, cover_row[wide], cover_bag[wide]
        )
        tree_root = validate_support_tree(td, tree_row, tree_bag)
        home[tree_row[tree_root]] = tree_bag[tree_root]
    # the chain scalar u_j of a support-tree bag j below the root lives in
    # the block of j's parent
    link = np.ones(tree_row.size, dtype=bool)
    link[tree_root] = False
    link_row, link_up = tree_row[link], td.parent[tree_bag[link]]

    senses = np.asarray(problem.senses, dtype=str)
    slack_i = np.flatnonzero(senses != "eq")
    slack_owner = home[slack_i]

    # ---- layout ----------------------------------------------------------
    order = np.diff(td.bag_start)
    n_aux = np.bincount(link_up, minlength=ell)
    n_nn = np.bincount(slack_owner, minlength=ell)
    ends = np.cumsum(tri(order) + n_aux + n_nn)
    nn_start = ends - n_nn
    aux_start = nn_start - n_aux
    svec_start = aux_start - tri(order)
    dim_z = int(ends[-1]) if ell else 0
    # slacks in constraint order, chain scalars by (constraint, postorder)
    slack_coord = _slots(slack_owner, nn_start, n_nn)
    aux_coord = _slots(link_up, aux_start, n_aux)

    # ---- cost vector -----------------------------------------------------
    pos, val = svec_coords(pieces.rows, pieces.cols, pieces.vals)
    col = svec_start[bag] + pos
    c_z = np.zeros(dim_z)
    np.add.at(c_z, col[k:], val[k:])

    # ---- constraint rows -------------------------------------------------
    # a plain constraint is one row; an aux chain has one row per
    # support-tree bag, in postorder, and its root's row carries b_i and
    # the slack; u_j enters the row of j with -1 and that of its parent
    # with +1
    rows_per = np.maximum(np.bincount(tree_row, minlength=m), 1)
    # a (constraint, bag) pair's row is the first of its constraint plus
    # the bag's rank in its support tree (0 outside the trees)
    tree_key = tree_row * ell + post[tree_bag]
    base = np.cumsum(rows_per) - rows_per
    base -= np.searchsorted(tree_row, np.arange(m))
    entry_row = base[ids[:k]] + np.searchsorted(tree_key, entry_key)
    dual_row = base + np.searchsorted(
        tree_key, np.arange(m) * ell + post[home]
    )
    link_at = base[link_row] + np.stack([  # rows of -u_j and +u_j
        np.flatnonzero(link),
        np.searchsorted(tree_key, link_row * ell + post[link_up]),
    ])
    rhs = np.zeros(int(rows_per.sum()))
    rhs[dual_row] = problem.b
    a_rows = sp.csr_matrix(
        (
            np.concatenate([
                val[:k],
                np.where(senses[slack_i] == "ge", -1.0, 1.0),
                np.tile([-1.0, 1.0], aux_coord.size),
            ]),
            (
                np.concatenate([
                    entry_row, dual_row[slack_i], link_at.T.ravel()
                ]),
                np.concatenate([
                    col[:k], slack_coord, np.repeat(aux_coord, 2)
                ]),
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
        dual_row_of_constraint=dual_row,
        order=order,
        svec_start=svec_start,
        n_aux=n_aux,
        n_nn=n_nn,
    )


def _slots(owner, start, count):
    """Coordinate of each item in its owner's run of ``count`` slots from
    ``start``; the items of one owner take its slots in their order."""
    by_owner = np.argsort(owner, kind="stable")
    out = np.empty_like(by_owner)
    out[by_owner] = np.arange(by_owner.size)
    return out + (start - np.cumsum(count) + count)[owner]


def _overlap_rows(td, svec_start, dim_z):
    """Rows X_j[x, y] - X_p[x, y] = 0 over the separator pairs x <= y of
    each non-root bag j and its parent p, bags in postorder and pairs in
    lexicographic order."""
    post = td.postorder()
    start = td.bag_start
    at = ranges(start[post], np.diff(start)[post])
    at = at[td.parent_pos[at] >= 0]  # separator entries, child after child
    child = td.bag_of[at]
    # pairs (a, b), a <= b, of separator entries of one child
    rank = td.post_index[child]
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
    return DualizedProblem(
        ctc=ctc,
        g_csr=g,
        nonaux=ctc.nonaux_coords(),
        cone_x=ConeSpec(
            1 + g.shape[0], ctc.order, np.zeros_like(ctc.order), ctc.n_nn
        ),
    )
