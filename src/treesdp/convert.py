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
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp

from .chordal import TreeDecomposition, decompose, sparsity_graph
from .errors import DimensionMismatch, DisconnectedSupport, InvalidSplit
from .linalg import SparseSymmetric, tri
from .model import SdpProblem
from .splitting import build_unique_partition, split

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
    mat: SparseSymmetric, pieces: dict, td: TreeDecomposition
) -> None:
    """Exact check that the embedded per-bag pieces sum to ``mat``; raises
    InvalidSplit on disagreement.

    The pieces are summed per stored position, and every stored entry of
    ``mat`` must match its sum to ``1e-9 * (1 + |value|)``; a piece entry
    outside the stored pattern of ``mat`` is rejected.  Linear in the
    stored entries of ``mat`` and the pieces."""
    total = dict.fromkeys(zip(mat.rows.tolist(), mat.cols.tolist()), 0.0)
    for j, piece in pieces.items():
        bag = td.bags[j]  # sorted, so lower storage maps to lower storage
        for r, c, v in zip(
            piece.rows.tolist(), piece.cols.tolist(), piece.vals.tolist()
        ):
            key = (bag[r], bag[c])
            if key not in total:
                raise InvalidSplit(
                    f"split piece of bag {j + 1} stores entry "
                    f"({key[0] + 1}, {key[1] + 1}), which the matrix does not"
                )
            total[key] += v
    for ((r, c), got), want in zip(total.items(), mat.vals.tolist()):
        if abs(got - want) > 1e-9 * (1.0 + abs(want)):
            raise InvalidSplit(
                f"split pieces sum to {got!r} at entry ({r + 1}, {c + 1}), "
                f"where the matrix stores {want!r}"
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


def _packed_pos(bag: tuple, u: int, v: int) -> int:
    iu, iv = bag.index(u), bag.index(v)
    hi, lo = max(iu, iv), min(iu, iv)
    return hi * (hi + 1) // 2 + lo


def _assemble(
    problem: SdpProblem,
    td: TreeDecomposition | None,
    order: list | None,
    with_aux: bool,
) -> ConvertedProblem:
    if td is None:
        graph = sparsity_graph(problem.cost, problem.constraints)
        td = decompose(graph, order=order)
    partition = build_unique_partition(td)
    post_index = td.post_index

    cost_split = split(problem.cost, td, partition)
    verify_split(problem.cost, cost_split.pieces, td)

    piece_sets = []  # per constraint: dict bag -> local SparseSymmetric
    members_of = []  # per constraint: cover bags in postorder
    for a in problem.constraints:
        res = split(a, td, partition)
        verify_split(a, res.pieces, td)
        piece_sets.append(res.pieces)
        members_of.append(sorted(res.cover, key=post_index.__getitem__))

    # ---- aux plan ------------------------------------------------------
    aux_members = {}
    if with_aux:
        for i in range(problem.m):
            cover = members_of[i]
            if not cover:
                continue
            members = steiner_closure(td, list(cover))
            root_w = validate_support_tree(td, members)
            if len(members) > 1:
                aux_members[i] = (
                    sorted(members, key=post_index.__getitem__),
                    root_w,
                )

    # ---- per-block extras ----------------------------------------------
    n_aux_at = [0] * td.ell
    aux_coord_local = {}  # (i, member bag) -> local index in parent block
    if with_aux:
        for i, (members, root_w) in aux_members.items():
            for j in members:
                if j == root_w:
                    continue
                p = int(td.parent[j])
                aux_coord_local[(i, j)] = n_aux_at[p]
                n_aux_at[p] += 1

    slack_owner = {}
    n_nn_at = [0] * td.ell
    slack_local = {}
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

    # ---- layout ----------------------------------------------------------
    blocks = []
    segments = []
    offset = 0
    for j in range(td.ell):
        o = len(td.bags[j])
        blk = BlockLayout(
            bag=td.bags[j],
            order=o,
            svec_start=offset,
            n_aux=n_aux_at[j],
            aux_start=offset + tri(o),
            n_nn=n_nn_at[j],
            nn_start=offset + tri(o) + n_aux_at[j],
        )
        blocks.append(blk)
        offset = blk.end
        segments.append(("psd", o))
        if blk.n_aux:
            segments.append(("free", blk.n_aux))
        if blk.n_nn:
            segments.append(("nonneg", blk.n_nn))
    cone = ConeSpec(segments=tuple(segments))
    dim_z = offset

    aux_coord = {
        key: blocks[int(td.parent[key[1]])].aux_start + local
        for key, local in aux_coord_local.items()
    }

    # ---- cost vector -----------------------------------------------------
    c_z = np.zeros(dim_z)
    for j, piece in cost_split.pieces.items():
        pos, vals = piece.svec_coords()
        np.add.at(c_z, blocks[j].svec_start + pos, vals)

    # ---- constraint rows --------------------------------------------------
    rows_i, cols_i, vals_i = [], [], []
    row_kind = []
    block_of_row = []
    rhs = []
    slack_coord = {}
    dual_row = -np.ones(problem.m, dtype=np.int64)
    aux_constraints = []

    def add_entry(r, c, v):
        rows_i.append(r)
        cols_i.append(c)
        vals_i.append(v)

    row = 0
    for i in range(problem.m):
        sense = problem.senses[i]
        slack_sign = 0.0 if sense == "eq" else (-1.0 if sense == "ge" else 1.0)
        if i not in aux_members:
            touched = set()
            for j, piece in piece_sets[i].items():
                pos, vals = piece.svec_coords()
                for p, v in zip(blocks[j].svec_start + pos, vals):
                    add_entry(row, int(p), float(v))
                touched.add(j)
            if slack_sign:
                owner = slack_owner[i]
                coord = blocks[owner].nn_start + slack_local[i]
                add_entry(row, coord, slack_sign)
                slack_coord[i] = coord
                touched.add(owner)
            row_kind.append(("plain", i))
            block_of_row.append(tuple(sorted(touched)))
            rhs.append(float(problem.b[i]))
            dual_row[i] = row
            row += 1
        else:
            members, root_w = aux_members[i]
            start = row
            children_w = {j: [] for j in members}
            for j in members:
                if j != root_w:
                    children_w[int(td.parent[j])].append(j)
            for j in members:
                touched = {j}
                piece = piece_sets[i].get(j)
                if piece is not None:
                    pos, vals = piece.svec_coords()
                    for p, v in zip(blocks[j].svec_start + pos, vals):
                        add_entry(row, int(p), float(v))
                for k in children_w[j]:
                    add_entry(row, aux_coord[(i, k)], 1.0)
                if j != root_w:
                    add_entry(row, aux_coord[(i, j)], -1.0)
                    touched.add(int(td.parent[j]))
                    rhs.append(0.0)
                else:
                    if slack_sign:
                        coord = blocks[root_w].nn_start + slack_local[i]
                        add_entry(row, coord, slack_sign)
                        slack_coord[i] = coord
                    rhs.append(float(problem.b[i]))
                    dual_row[i] = row
                row_kind.append(("aux", i, j, j == root_w))
                block_of_row.append(tuple(sorted(touched)))
                row += 1
            aux_constraints.append(
                AuxConstraint(
                    index=i,
                    members=list(members),
                    root=root_w,
                    aux_coord={
                        j: aux_coord[(i, j)] for j in members if j != root_w
                    },
                    row_range=(start, row),
                )
            )

    a_rows = sp.csr_matrix(
        (np.array(vals_i), (np.array(rows_i), np.array(cols_i))),
        shape=(row, dim_z),
    )

    # ---- overlap rows ------------------------------------------------------
    rows_n, cols_n, vals_n = [], [], []
    n_block_of_row = []
    nrow = 0
    for j in td.postorder():
        p = int(td.parent[j])
        if p == j:
            continue
        sep = sorted(td.separator(j))
        for x, y in combinations_with_replacement(sep, 2):
            pos_child = blocks[j].svec_start + _packed_pos(td.bags[j], x, y)
            pos_parent = blocks[p].svec_start + _packed_pos(td.bags[p], x, y)
            rows_n.extend([nrow, nrow])
            cols_n.extend([pos_child, pos_parent])
            vals_n.extend([1.0, -1.0])
            n_block_of_row.append(tuple(sorted((j, p))))
            nrow += 1
    n_rows = sp.csr_matrix(
        (np.array(vals_n), (np.array(rows_n), np.array(cols_n)))
        if nrow
        else (np.zeros(0), (np.zeros(0, dtype=int), np.zeros(0, dtype=int))),
        shape=(nrow, dim_z),
    )

    g_rhs = np.concatenate([np.array(rhs), np.zeros(nrow)])
    return ConvertedProblem(
        problem=problem,
        td=td,
        blocks=blocks,
        a_rows=a_rows,
        n_rows=n_rows,
        g_rhs=g_rhs,
        c_z=c_z,
        cone=cone,
        row_kind=row_kind,
        block_of_row=block_of_row + n_block_of_row,
        slack_coord=slack_coord,
        aux_plan=AuxPlan(constraints=aux_constraints) if with_aux else None,
        dual_row_of_constraint=dual_row,
    )


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
