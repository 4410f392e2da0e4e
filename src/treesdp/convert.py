"""Conversion of a sparse SDP into a block-tree form and its dualization.

The clique-tree conversion replaces the single PSD variable X by one PSD
block per bag, ties shared entries together with overlap (selection) rows,
and rewrites each constraint on the split pieces.  Optionally, a constraint
whose pieces span several bags is *separated*: one row per support-tree bag,
chained by free auxiliary scalars, so every row touches at most two
tree-adjacent blocks.  Dualization embeds the converted problem's dual into a
second-order cone program whose normal equations inherit the tree block
structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .chordal import TreeDecomposition, decompose, sparsity_graph
from .errors import (
    DimensionMismatch, DisconnectedSupport, InvalidSplit, UncoverableEntry
)
from .linalg import Triplets, sorted_lookup, svec_coords, tri
from .model import SdpProblem
from .splitting import (
    SplitResult,
    UniquePartition,
    build_unique_partition,
    split,
)

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

    @property
    def has_free(self) -> bool:
        return any(kind == "free" for kind, _ in self.segments)


# --------------------------------------------------------------------------
# Split verification
# --------------------------------------------------------------------------


def verify_split(
    stack: Triplets, pieces: SplitResult, partition: UniquePartition
) -> None:
    """Exact check that the embedded per-bag pieces sum to the stacked
    matrices; raises InvalidSplit on disagreement.

    The pieces are summed per stored position, and every stored entry must
    match its sum to ``1e-9 * (1 + |value|)``; a piece entry outside the
    stored pattern of its matrix is rejected.  One binary search per piece
    entry over the stored entries."""
    n = partition.n
    start = partition.bag_start[pieces.assignment]
    # bags are sorted, so lower storage maps to lower storage
    rows = partition.members[start + pieces.rows]
    cols = partition.members[start + pieces.cols]
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
class BlockLayout:
    bag: tuple
    order: int
    svec_start: int
    n_aux: int
    aux_start: int
    n_nn: int
    nn_start: int

    @property
    def svec_len(self) -> int:
        return tri(self.order)

    @property
    def end(self) -> int:
        return self.nn_start + self.n_nn

    @property
    def width(self) -> int:
        return self.svec_len + self.n_aux + self.n_nn


@dataclass
class AuxConstraint:
    index: int  # original constraint index
    members: list  # support-tree bags in postorder (children before the root)
    root: int
    aux_coord: dict  # member bag -> z-coordinate of its chain scalar u_j
    row_range: tuple  # [start, end) rows in a_rows


@dataclass
class AuxPlan:
    constraints: list  # AuxConstraint per separated constraint

    @property
    def n_aux(self) -> int:
        return sum(len(c.aux_coord) for c in self.constraints)


@dataclass
class ConvertedProblem:
    """Block-tree form: min <c_z, z> s.t. A z = b-part, N z = 0, with z laid
    out per bag as [svec(X_j) | aux_j | slacks_j]."""

    problem: SdpProblem
    td: TreeDecomposition
    blocks: list  # BlockLayout per bag
    a_rows: sp.csr_matrix
    n_rows: sp.csr_matrix
    g_rhs: np.ndarray  # rhs for [A; N] (zeros on the N part)
    c_z: np.ndarray
    cone: ConeSpec
    row_kind: list  # per A-row: ("plain", i) | ("aux", i, bag, is_root)
    block_of_row: list  # per G-row: sorted tuple of blocks touched
    slack_coord: dict  # constraint index -> z coordinate of its slack
    aux_plan: AuxPlan | None
    dual_row_of_constraint: np.ndarray  # constraint -> representative A-row

    @property
    def dim_z(self) -> int:
        return self.blocks[-1].end if self.blocks else 0

    @property
    def n_overlap(self) -> int:
        return self.n_rows.shape[0]

    @property
    def f(self) -> int:
        return self.a_rows.shape[0] + self.n_rows.shape[0]

    def g_matrix(self) -> sp.csr_matrix:
        return sp.vstack([self.a_rows, self.n_rows], format="csr")

    def nonaux_coords(self) -> np.ndarray:
        keep = []
        for blk in self.blocks:
            keep.extend(range(blk.svec_start, blk.svec_start + blk.svec_len))
            keep.extend(range(blk.nn_start, blk.nn_start + blk.n_nn))
        return np.array(keep, dtype=np.int64)

    def extract_bag_matrices(self, z: np.ndarray) -> dict:
        from .linalg import smat

        out = {}
        for j, blk in enumerate(self.blocks):
            out[j] = smat(z[blk.svec_start:blk.svec_start + blk.svec_len])
        return out


def _assemble(
    problem: SdpProblem,
    td: TreeDecomposition | None,
    order: list | None,
    with_aux: bool,
) -> ConvertedProblem:
    if td is None:
        graph = sparsity_graph(problem.n, problem.triplets)
        td = decompose(graph, order=order)
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
    verify_split(stack, pieces, partition)
    ids, bag = pieces.ids, pieces.assignment
    k = int(np.searchsorted(ids, m))  # the cost's entries come last

    # ---- covers: the bags of each constraint's pieces --------------------
    cover_row, cover_bag = np.divmod(np.unique(ids[:k] * ell + bag[:k]), ell)
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

    # ---- aux plan --------------------------------------------------------
    aux_members = {}
    n_aux_at = [0] * ell
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
                aux_local[(i, j)] = n_aux_at[p]
                n_aux_at[p] += 1

    senses = np.asarray(problem.senses, dtype=str)
    slack_i = np.flatnonzero(senses != "eq")
    slack_owner = home[slack_i]
    n_nn_at = np.bincount(slack_owner, minlength=ell)

    # ---- layout ----------------------------------------------------------
    n_aux_at = np.asarray(n_aux_at, dtype=np.int64)
    orders = np.diff(partition.bag_start)
    svec_len = orders * (orders + 1) // 2
    ends = np.cumsum(svec_len + n_aux_at + n_nn_at)
    aux_start = ends - n_aux_at - n_nn_at
    svec_start = aux_start - svec_len
    blocks = [
        BlockLayout(td.bags[j], o, s, a, s + t, nn, s + t + a)
        for j, (o, s, t, a, nn) in enumerate(
            zip(*(x.tolist() for x in (
                orders, svec_start, svec_len, n_aux_at, n_nn_at
            )))
        )
    ]
    segments = []
    for blk in blocks:
        segments.append(("psd", blk.order))
        if blk.n_aux:
            segments.append(("free", blk.n_aux))
        if blk.n_nn:
            segments.append(("nonneg", blk.n_nn))
    dim_z = int(ends[-1]) if ell else 0
    aux_coord = {
        key: int(aux_start[td.parent[key[1]]]) + local
        for key, local in aux_local.items()
    }
    # each slack's rank among those of its owner block, in constraint order
    by_owner = np.argsort(slack_owner, kind="stable")
    slack_coord = np.empty_like(by_owner)
    slack_coord[by_owner] = np.arange(by_owner.size)
    slack_coord += (ends - np.cumsum(n_nn_at))[slack_owner]

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
    aux_kinds, aux_blocks = {}, {}
    for i, (members, root_w) in aux_members.items():
        at = {j: r for r, j in enumerate(members)}
        s, t = np.searchsorted(ids[:k], [i, i + 1])
        rank[s:t] = [at[j] for j in bag[s:t].tolist()]
        rows_per[i] = len(members)
        dual_row[i] = at[root_w]
        aux_kinds[i] = [("aux", i, j, j == root_w) for j in members]
        aux_blocks[i] = []
        for j in members:
            p = int(td.parent[j])
            if j == root_w:
                aux_blocks[i].append((j,))
                continue
            aux_blocks[i].append((min(j, p), max(j, p)))
            chain_i += [i, i]
            chain_r += [at[j], at[p]]
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
    row_kind = [("plain", i) for i in range(m)]
    block_of_row = [(j,) for j in home.tolist()]
    for i in np.flatnonzero((n_cover == 0) & (senses == "eq")).tolist():
        block_of_row[i] = ()
    for i, cover in wide.items():
        block_of_row[i] = tuple(sorted(cover))
    aux_constraints = [
        AuxConstraint(
            i,
            members,
            root_w,
            {j: aux_coord[(i, j)] for j in members if j != root_w},
            (int(row_of[i]), int(row_of[i]) + len(members)),
        )
        for i, (members, root_w) in aux_members.items()
    ]

    n_rows, n_block_of_row = _overlap_rows(td, partition, svec_start, dim_z)
    return ConvertedProblem(
        problem=problem,
        td=td,
        blocks=blocks,
        a_rows=a_rows,
        n_rows=n_rows,
        g_rhs=np.concatenate([rhs, np.zeros(n_rows.shape[0])]),
        c_z=c_z,
        cone=ConeSpec(segments=tuple(segments)),
        row_kind=_splice(row_kind, aux_kinds),
        block_of_row=_splice(block_of_row, aux_blocks) + n_block_of_row,
        slack_coord=dict(zip(slack_i.tolist(), slack_coord.tolist())),
        aux_plan=AuxPlan(constraints=aux_constraints) if with_aux else None,
        dual_row_of_constraint=dual_row,
    )


def _splice(per_constraint: list, groups: dict) -> list:
    """One entry per row: the constraints' own entries, with the rows of
    each constraint in ``groups`` (ascending keys) in place of its one."""
    out, prev = [], 0
    for i, rows in groups.items():
        out += per_constraint[prev:i] + rows
        prev = i + 1
    return out + per_constraint[prev:]


def _overlap_rows(td, partition, svec_start, dim_z):
    """Rows X_j[x, y] - X_p[x, y] = 0 over the separator pairs x <= y of
    each non-root bag j and its parent p, bags in postorder and pairs in
    lexicographic order; returns the rows and the blocks of each."""
    post = np.asarray(td.postorder(), dtype=np.int64)
    child = post[td.parent[post] != post]
    parent = td.parent[child]
    start = partition.bag_start
    sizes = np.diff(start)[child]
    # the children's members, child after child, and which are shared
    of = np.repeat(np.arange(child.size), sizes)
    at = start[child][of] + np.arange(of.size) - (np.cumsum(sizes) - sizes)[of]
    in_parent, shared = partition.locate(parent[of], partition.members[at])
    of = of[shared]  # separator entries, child after child
    local_c = at[shared] - start[child][of]
    local_p = in_parent[shared] - start[parent][of]
    # pairs (a, b), a <= b, of separator entries of one child
    count = np.cumsum(np.bincount(of, minlength=child.size))[of]
    count -= np.arange(of.size)
    a = np.repeat(np.arange(of.size), count)
    b = a + np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)
    cols = [
        svec_start[blk[of[a]]] + local[b] * (local[b] + 1) // 2 + local[a]
        for blk, local in ((child, local_c), (parent, local_p))
    ]
    rows = np.arange(a.size)
    n_rows = sp.csr_matrix(
        (
            np.repeat([1.0, -1.0], a.size),
            (np.concatenate([rows, rows]), np.concatenate(cols)),
        ),
        shape=(a.size, dim_z),
    )
    j, p = child[of[a]], parent[of[a]]
    blocks = zip(np.minimum(j, p).tolist(), np.maximum(j, p).tolist())
    return n_rows, list(blocks)


def build_ctc(
    problem: SdpProblem,
    td: TreeDecomposition | None = None,
    order: list | None = None,
) -> ConvertedProblem:
    """Clique-tree conversion without auxiliary separation: each constraint
    stays one row over its split pieces."""
    return _assemble(problem, td, order, with_aux=False)


def separate_with_aux(
    problem: SdpProblem,
    td: TreeDecomposition | None = None,
    order: list | None = None,
) -> ConvertedProblem:
    """Clique-tree conversion with auxiliary chain variables: a constraint
    whose pieces span several bags becomes one row per support-tree bag,
    telescoped by free scalars stored in the parent block, so every row
    touches only tree-adjacent blocks."""
    return _assemble(problem, td, order, with_aux=True)


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
        out = -(self.g_csr.T @ x1.T).T
        out[..., self.nonaux] += x2
        return out

    def apply_mt(self, y: np.ndarray) -> np.ndarray:
        """M^T y = (0, -G y, gather of y on non-aux coords), for a vector or
        a batch of rows."""
        out = np.zeros(y.shape[:-1] + (self.dim_x,))
        out[..., 1:1 + self.f] = -(self.g_csr @ y.T).T
        out[..., 1 + self.f:] = y[..., self.nonaux]
        return out

    def data_norm(self) -> float:
        return float(
            np.sqrt(
                sp.linalg.norm(self.g_csr) ** 2
                + np.linalg.norm(self.ctc.c_z) ** 2
                + np.linalg.norm(self.ctc.g_rhs) ** 2
            )
        )

    # ---- solution readout -------------------------------------------------
    def ctc_primal(self, y: np.ndarray, tau: float) -> np.ndarray:
        return -y / tau

    def ctc_dual(self, x: np.ndarray, tau: float):
        u = -x[1:1 + self.f] / tau
        sigma = x[1 + self.f:] / tau
        return u, sigma


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
