"""Block-tree normal-equation engine.

The dualized block-tree program has a normal matrix of the form

    N = H + q q^T,      H = D_block + sigma * G^T G,

where ``D_block`` is block diagonal over the per-bag coordinate blocks
(dense symmetric-Kronecker blocks on the matrix coordinates, squared
scalings on the slack coordinates, zeros on the chain coordinates) and
every row of ``G`` touches coordinates of at most two tree-adjacent
bags.  Consequently H has nonzero off-diagonal bag blocks only on tree
edges, and a block Cholesky factorization that eliminates children
before parents produces no fill.  The engine checks that property once,
on G itself: :func:`row_bags` reads the distinct bags of each row off
G's stored pattern, and a row with more than two bags, or with two that
are not parent and child, raises
:class:`~treesdp.errors.StructureViolation` naming the row and its bags.

Bag j's block of coordinates is read off the conversion's per-bag
arrays: it starts at ``svec_start[j]`` and holds ``tri(order[j])``
matrix coordinates, ``n_aux[j]`` chain scalars and ``n_nn[j]`` slacks.

Groups.  A bag of order 2 has 3 coordinates, and at that size the fixed
cost of a Python step and a LAPACK call per block outweighs the
arithmetic.  So the engine works on *groups* of bags, as relaxed
supernode amalgamation does (Ashcraft & Grimes, ACM TOMS 1989).
:func:`group_bags` walks the bags in postorder.  It merges each child's
group into its parent's while the merged width stays within
``GROUP_WIDTH`` = 32 coordinates (about ten order-2 bags), and packs the
children that did not fit into sibling groups under the same cap; a bag
wider than the cap (an order-8 bag has 36 coordinates) stays alone.
The top bags of a group share one parent, the group's *attach bag*, which
lies in the parent group.  So the groups form a tree, and every bag edge
lies inside a group or joins a group to its attach bag.  Each group's
members are eliminated in postorder, so the bag blocks that are zero in H
stay exactly zero in L.  The block pattern is thus known before any
number is assembled: :meth:`TreeNormalSystem.pattern_stats` reports the
tree-adjacent bag pairs that share a row of G, which both H and L hold,
and no fill.
The factor and the triangular solves are dense LAPACK or BLAS calls per
group or per run of like groups (see Sweeps), and storage
stays linear in the number of bags: a merged group of w coordinates holds
w^2 <= ``GROUP_WIDTH`` * w entries.

Storage.  The coordinates are permuted once so that each group is one
contiguous slice, its members in postorder; ``solve_h`` permutes its
columns in and out by one ``np.take`` each per call.  The static
structure is int arrays built by array passes: per bag its first
permuted coordinate and its group, and per group its first coordinate
and width, its attach bag's first coordinate and row count, and the flat
offsets of its diagonal and edge blocks.  The normal matrix lives in one
flat buffer: each group's dense diagonal block, then each group's edge
block, which holds only the attach bag's rows.  ``assemble_h`` clears the
whole buffer, since the edge blocks hold the previous factor's, and
writes H into it; ``factor`` overwrites that H with L in place,
subtracting each group's update from a fixed view of its attach bag's
block.  So the buffer holds H from an assembly to the factor that
follows, and L after it, and each assembly is factored once.  The runs
of several groups (see Sweeps) keep their inverse factors in a second
buffer, w x w per member, and the runs with links their band arrays in a
third: the band (2 r rows by n r columns), a link's r columns of the
next member's inverse, and each member's w x r back product; the band's
entries outside the link blocks stay zero from the allocation.  G^T G is
kept as the (position, value) pairs of its nonzeros in that layout,
since merged blocks are mostly zeros, and as one CSR matrix in the
original coordinates for ``apply_h``.  The slack scalings, the static
shift and the finiteness checks are one vectorized pass each: ``factor``
checks the assembled H and ``solve_h`` its right-hand side, once per
call, and both raise :class:`~treesdp.errors.NotFinite`.  The
symmetric-Kronecker blocks are added one *run* of bags at a time:
same-order bags of one width that lie next to each other on one group's
diagonal share one strided (bags, t, t) view into the buffer, so a chain
needs about one in-place add per group and order, each entry the same
single addition as bag by bag.  An index array over every Kronecker
entry (1.4 MB of int64 on a random graph with 18-vertex bags, plus a
temporary as large) raised the peak memory of a whole solve there by
2-3 %.  The per-group triangular solves call LAPACK ``dtrtrs`` directly,
with the operands and flags ``scipy.linalg.solve_triangular`` would pass,
so every result is the same to the last bit without the per-call
argument validation.  ``factor`` writes each diagonal block's Cholesky
factor in place through numpy's LAPACK gufunc, the kernel
``np.linalg.cholesky`` calls, under one error state around its loop
(:func:`~treesdp.linalg.lapack_errstate`).

Sweeps.  ``factor`` and ``solve_h`` walk one plan of *runs*, built once
with the engine: maximal stretches of consecutive groups, in elimination
order, of equal width w and equal attach-row count r, in which the only
member whose attach bag a group may hold is its predecessor.  A member
whose attach bag lies in the next member is a *link*; every other
member's attach bag lies in a later run, and its children in earlier
ones.  So the members of a run without links do not depend on one
another in either sweep (level scheduling of a sparse triangular solve;
Anderson & Saad 1989), and those of a run with links depend on one
another only through the r overlap rows of each link.  Each run is one
record that both walk.  A run of one group keeps its 2-D blocks and the
per-group steps: ``cholesky_lo``, then ``dtrtrs`` (in ``factor`` in
place in the edge block, which holds H's until then), then slices.  A run
of n groups is strided (n, w, w) and (n, r, w) views into the buffers,
and ``factor`` writes each member's inverse factor (LAPACK ``dtrtri``)
into the inverse buffer, since the block counts of
:meth:`TreeNormalSystem.pattern_stats` are measured on L's own blocks.

A run without links takes one ``cholesky_lo`` over its diagonal blocks,
makes its edge blocks by one stacked product ``H_off L^{-T}`` over the
edge blocks in place, and subtracts its members' updates from their
attach blocks by one ``np.subtract.at`` over fixed flat positions, which
takes repeated positions (siblings that share an attach bag) in member
order.
``solve_h`` makes one stacked product per run and direction, and scatters
a run's edge terms by ``np.subtract.at``, which subtracts repeated attach
rows in sequence, as the per-group loop does.  A star's leaf groups form
one such run and its hub another, so each sweep takes two steps there
instead of one per group.

A run with links (a chain's groups each attach to the next) is factored
member by member with the per-group steps, since each diagonal block
waits for its predecessor's update; then come the inverses, each link's
r x r block T = L_off L^{-1}[:, p:p+r] of the next member (p the link's
first row in it) by one stacked product, and each member's
L^{-T} L_off^T by another.  The blocks T are scattered at fixed
positions into the LAPACK band storage of the unit lower band matrix
I + T over the run's n r edge terms, of bandwidth 2 r - 1 (the reduced
system of the SPIKE scheme for banded solves; Polizzi & Sameh, Parallel
Computing 2006).  ``solve_h``'s forward sweep takes y' = L^{-1} x and
a = L_off y' by stacked products, solves (I + T) c = a by one LAPACK
``dtbtrs``, takes each link's term off the next member's rows,
y = y' - L^{-1}[:, p:p+r] c, and scatters the other members' terms onto
their attach rows.  The backward sweep takes v = L^{-T} y, solves the
transposed band system for the final values d of every member's attach
rows (a link's read off v of the next member, the others' off a later
run's), and sets x = v - L^{-T} L_off^T d.  So a path's groups form one
run, its root group another, and each sweep takes two steps there at any
length.  Every block is a view into the normal matrix's, the inverse or
the band buffer, fixed for the engine's life, and no workspace outlives
a call.

``apply_h`` reads none of the buffers above, so it gives the same H x
before and after ``factor``.  It forms H x from H's parts, which
``assemble_h`` writes, beside H, into arrays allocated with the engine:
sigma (G^T G) x by one sparse product, each order's Kronecker stack
(tri(o)^2 floats per bag) by one stacked product over its bags'
coordinates, then the slack scalings.  It works in the original
coordinates and permutes nothing.  Each entry gets its terms in the
order ``assemble_h`` adds them, so H times a unit vector is H's column
to the last bit.

Solves.  ``(H + q q^T) v = r`` is solved for batched right-hand sides by
the matrix-inversion lemma, with the denominator ``1 + q^T H^{-1} q``
computed once per factorization, followed by exactly one
iterative-refinement pass.  A run of several groups multiplies by
explicit inverses, and a run with links adds its band solve, so their
floats differ from the per-group sweep's in the last bits (L's blocks
keep the per-group floats on a chain); a run of one group gives that
sweep's floats exactly.  The pass is unconditional: when a residual
tolerance decided it, rounding noise decided which directions were
refined, and the final dual infeasibility of a solve followed that noise.

``DenseNormalSystem`` is the small-scale reference: it materializes the
full normal matrix ``M D^{-1} M^T`` densely and factors it directly.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dtbtrs, dtrtri, dtrtrs

from .chordal import TreeDecomposition
from .convert import DualizedProblem
from .errors import (
    DenominatorUnderflow,
    DimensionMismatch,
    IndefinitePivot,
    NotFinite,
    StructureViolation,
)
from .linalg import (
    cholesky_lo,
    dense_factor,
    lapack_errstate,
    ranges,
    sorted_unique,
    sym_kron_stack,
    tri,
)

REGULARIZATION_REL = 1e-12
DENOMINATOR_FLOOR = 1e-14
# Largest merged group, in coordinates.  Against a cap of 16, 32 cut the
# bench workloads' solve times by 5-27 % and raised a whole solve's peak
# memory by 0.0-0.7 % (2-core host); 48 was no faster on a chain of
# width-2 bags and raised it there by 1.3-1.5 %.
GROUP_WIDTH = 32


class _Links(NamedTuple):
    """A sweep run's links: its members ``src`` attach to the members
    ``dst`` = ``src`` + 1, each at r rows of the next member's block, and
    every other member to a group in a later run.

    The run's n r edge terms ``c`` (member i's at rows i r .. i r + r)
    solve the unit lower band system (I + T) c = L_off L^{-1} x, whose
    link block ``T`` couples a member's terms to its predecessor's: T =
    L_off L^{-1}[:, p:p+r] of the next member, p the link's first row in
    it.  ``lp`` holds those r columns of each next member's inverse, read
    from ``_linv_flat`` at ``lp_idx``; ``band`` is the system's LAPACK
    band storage (2r rows, F-ordered), which ``factor`` fills at
    ``band_pos`` of ``_link_flat``; and ``u`` holds each member's
    L^{-T} L_off^T.  The backward sweep's right-hand side takes the band
    unknowns of a link from the rows ``b_src`` of the run's L^{-T} y and
    those at ``out_rows``, the members attaching outside, from their
    attach rows ``out_att``.
    """

    src: np.ndarray
    dst: np.ndarray
    lp_idx: np.ndarray
    lp: np.ndarray
    band: np.ndarray
    band_pos: np.ndarray
    u: np.ndarray
    b_src: np.ndarray
    out_rows: np.ndarray
    out_att: np.ndarray


class _Run(NamedTuple):
    """One step of the sweep plan: the n groups from k on, of width w and
    r attach rows, whose permuted coordinates are ``rows``.

    A run of one group holds its 2-D blocks of L, their transposes and
    its attach bag's slice ``att`` (None at the root group, as are its
    edge blocks).  A run of n > 1 groups holds strided (n, w, w) and
    (n, r, w) views into ``_l_flat``, the inverses of its diagonal factors
    in ``_linv_flat`` and ``att``, its stretch of the attach-row array.  A run without links also holds ``blocks``, the flat positions
    of its members' attach blocks in ``_l_flat`` (their updates, in
    order); a run with links holds its :class:`_Links` instead.
    """

    k: int
    n: int
    w: int
    r: int
    rows: slice
    l_diag: np.ndarray
    l_diag_t: np.ndarray
    l_off: np.ndarray
    l_off_t: np.ndarray
    inv: np.ndarray
    inv_t: np.ndarray
    att: object
    blocks: np.ndarray
    links: _Links


def _trtrs_failed(info: int, routine: str = "dtrtrs") -> IndefinitePivot:
    return IndefinitePivot(
        f"triangular solve failed: LAPACK {routine} info = {info}"
    )


def group_bags(td: TreeDecomposition, widths, cap) -> list:
    """Partition the bags of ``td`` into groups of at most ``cap``
    coordinates, ``widths[j]`` being bag j's.

    Walking the bags in postorder, each child's group merges into its
    parent's while the merged width stays within ``cap``; the children
    that did not fit are packed, in order, into sibling groups under the
    same cap.  A bag wider than ``cap`` stays alone.  Returns tuples of
    bags, each in postorder, in an elimination order: every group comes
    before the group that holds its attach bag.
    """
    parent, post = td.parent.tolist(), td.postorder().tolist()
    children = [[] for _ in range(td.ell)]
    for j in post:
        if parent[j] != j:
            children[parent[j]].append(j)
    members = [None] * td.ell  # bag -> its open group, in postorder
    width = [0] * td.ell
    groups = []
    for j in post:
        merged, w = [], widths[j]
        pack, pack_w = [], 0
        for c in children[j]:
            if w + width[c] <= cap:
                merged += members[c]
                w += width[c]
                continue
            if pack and pack_w + width[c] > cap:
                groups.append(tuple(pack))
                pack, pack_w = [], 0
            pack += members[c]
            pack_w += width[c]
        if pack:
            groups.append(tuple(pack))
        merged.append(j)
        members[j], width[j] = merged, w
    groups.append(tuple(members[td.root]))
    return groups


def row_bags(g, bag_of: np.ndarray) -> tuple:
    """The distinct (row, bag) pairs of the stored entries of the CSR
    matrix ``g``, as two arrays sorted by row and then bag; ``bag_of[c]``
    is the bag of column c, laid out bag after bag.  So along a row with
    sorted indices the bag never decreases, and each pair is one stretch
    of equal neighbours.  Unsorted indices are sorted in a copy.
    """
    if not g.has_sorted_indices:
        g = g.sorted_indices()
    rows = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
    bags = bag_of[g.indices]
    new = np.ones(bags.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (bags[1:] != bags[:-1])
    return rows[new], bags[new]


def _link_size(n: int, w: int, r: int, m: int) -> int:
    """Floats of a :class:`_Links`' arrays for a run of n groups of width
    w and r attach rows with m links: the band over n r unknowns, 2 r
    rows deep, the m link columns and the n back products, w x r each."""
    return n * r * 2 * r + (m + n) * w * r


def _stack(flat: np.ndarray, off, n: int, rows: int, w: int) -> np.ndarray:
    """The (n, rows, w) view of n consecutive C-ordered rows x w blocks
    of ``flat``, the first at offset ``off``.  The buffer constructor
    raises if the view leaves ``flat``."""
    item = flat.itemsize
    return np.ndarray((n, rows, w), flat.dtype, flat, int(off) * item,
                      (rows * w * item, w * item, item))


def _t(a):
    """``a`` with its last two axes swapped (None stays None)."""
    return None if a is None else a.swapaxes(-1, -2)


class TreeNormalSystem:
    """Assemble, factor, and solve the block-tree normal equations."""

    def __init__(self, dualized: DualizedProblem):
        ctc = dualized.ctc
        self.dualized = dualized
        self.ctc = ctc
        td = ctc.td
        self.ell = td.ell
        self.dim = ctc.dim_z
        width = ctc.width

        self._offdiag_blocks = self._check_row_structure()
        self.groups = group_bags(td, width.tolist(), GROUP_WIDTH)
        self._layout(width)
        self._gtg, self._gtg_pos, self._gtg_val = self._static_gram()
        # each assembly writes H here and factor overwrites it with L, in
        # place, through fixed block views
        self._l_flat = np.empty(self._n_flat)
        self._l_blocks = self._blocks(self._l_flat)
        self._runs = self._sweep_views(self._sweep_plan())
        self._kron_runs = self._kron_run_views()
        # the original coordinates of each order-o bag's matrix block, one
        # row per bag in block order, and of the slack coordinates in block
        # order (the order of the slack scaling vector), with their flat
        # positions on the diagonal
        self._kron_idx = {
            o: ctc.svec_start[ctc.order == o, None] + np.arange(tri(o))
            for o in self._kron_runs
        }
        self._nn = ranges(ctc.nn_start, ctc.n_nn)
        self._nn_pos = self._diag_pos[self._inv_perm[self._nn]]
        # H's parts for apply_h, rewritten by each assembly: each order's
        # Kronecker stack in one buffer allocated once (freeing and
        # refaulting new stacks every assembly cost rgraph-maxcut about
        # 1 ms per assembly on a 2-core host), laid out as sym_kron_stack
        # returns it, the transpose of a C-ordered (t, t, bags) array: the
        # copy then moves whole rows, and apply_h's stacked products give
        # the floats they gave on sym_kron_stack's own result (a C-ordered
        # stack takes another numpy matmul path, whose last bits differ);
        # and the slack scalings
        sizes = [idx.size * idx.shape[1] for idx in self._kron_idx.values()]
        self._kron_flat = np.empty(sum(sizes))
        self._kron = {
            o: self._kron_flat[end - size:end].reshape(
                idx.shape[1], idx.shape[1], idx.shape[0]
            ).transpose(2, 0, 1)
            for (o, idx), size, end in zip(
                self._kron_idx.items(), sizes, np.cumsum(sizes)
            )
        }
        self._nn_w2 = np.empty(self._nn.size)
        self._assemble_ops = int(np.sum(width * width)) + sum(
            runs[-1][1] * tri(o) * tri(o) * o
            for o, runs in self._kron_runs.items()
        )
        # per group w^3 / 3 + w for its diagonal block and w r (w + r) for
        # its edge block and update; per run of several its inverses,
        # w^3 / 3 each, and per run with links its link blocks, r^2 w
        # each, and its back products, w^2 r per member
        self._factor_ops = 0
        for run in self._runs:
            n, w, r = run.n, run.w, run.r
            self._factor_ops += n * (
                w ** 3 // 3 * (1 + (n > 1)) + w + w * r * (w + r)
            )
            if run.links:
                self._factor_ops += (
                    run.links.src.size * w * r * r + n * w * w * r
                )

        # per-assembly state: sigma, and where H is held: None before an
        # assembly completes, "buffer" in _l_flat and its parts until
        # factor runs, "parts" after
        self.sigma = 0.0
        self._h_in = None
        # per-factorization state
        self.l_diag: list = []
        self.l_off: list = []  # per group; None for the root group
        self.q = None
        self._u_q = None
        self._denom = None

        # instrumentation
        self.n_factor = 0
        self.n_solve_columns = 0
        self.n_refine = 0
        self.last_factor_ops = 0

    # ------------------------------------------------------------------
    # static structure
    # ------------------------------------------------------------------
    def _check_row_structure(self) -> int:
        """Raise StructureViolation unless every row of G touches at most
        two bags, and two only if one is the other's parent.  Returns the
        number of distinct bag pairs that share a row: H's off-diagonal
        bag blocks, and L's."""
        bag_of = np.repeat(np.arange(self.ell), self.ctc.width)
        row, bag = row_bags(self.dualized.g_csr, bag_of)
        pair = np.flatnonzero(row[1:] == row[:-1])  # bag[i], bag[i+1]: one row
        a, b = bag[pair], bag[pair + 1]
        parent = self.ctc.td.parent
        far = (parent[a] != b) & (parent[b] != a)
        bad = np.union1d(
            np.flatnonzero(np.bincount(row) > 2), row[pair[far]]
        )
        if bad.size:
            r = int(bad[0])
            raise StructureViolation(
                f"row {r + 1} of G touches bags "
                f"{tuple((bag[row == r] + 1).tolist())}; "
                "a tree-structured normal matrix needs at most two "
                "tree-adjacent bags per row"
            )
        return int(sorted_unique(a * self.ell + b).size)

    def _layout(self, width: np.ndarray) -> None:
        """The permuted coordinates and the flat layout of the blocks.

        Permuted coordinate i is original coordinate ``perm[i]``, in bag
        ``_bag_of[i]``; bag j's coordinates start at ``_bag_start[j]``, in
        group ``_group_of[j]``.  Group k holds ``_width[k]`` coordinates
        from ``_first[k]``; its attach bag has ``_attach_rows[k]`` (0 at
        the root) and lies in group ``_attach_group[k]``.  The flat
        buffer holds every group's diagonal block, then every group's edge
        block, ``_width[k]`` columns each: block b starts at
        ``_block_off[b]``, its rows at ``_block_row[b]``.
        ``slices`` and ``_slabs`` are those rows as slices, for the sweeps.
        """
        n_groups = len(self.groups)
        sizes = np.fromiter(map(len, self.groups), np.int64, n_groups)
        bags = np.fromiter(
            chain.from_iterable(self.groups), np.int64, self.ell
        )
        w = width[bags]
        ends = np.cumsum(w)
        self.perm = ranges(self.ctc.svec_start[bags], w)
        self._inv_perm = np.empty_like(self.perm)
        self._inv_perm[self.perm] = np.arange(self.dim, dtype=np.int64)
        self._bag_of = np.repeat(bags, w)
        self._bag_start = np.empty(self.ell, dtype=np.int64)
        self._bag_start[bags] = ends - w
        self._group_of = np.empty(self.ell, dtype=np.int64)
        self._group_of[bags] = np.repeat(np.arange(n_groups), sizes)

        last = np.cumsum(sizes) - 1
        top = bags[last]  # the last member is a top bag
        attach = self.ctc.td.parent[top]
        self._width = np.diff(ends[last], prepend=0)
        self._first = ends[last] - self._width
        self._attach_rows = np.where(attach == top, 0, width[attach])
        self._attach_group = self._group_of[attach]
        rows = np.concatenate((self._width, self._attach_rows))
        size = rows * np.tile(self._width, 2)
        self._block_off = np.cumsum(size) - size
        self._block_row = np.concatenate(
            (self._first, self._bag_start[attach])
        )
        self._n_flat = int(size.sum())
        group = self._group_of[self._bag_of]
        self._diag_pos = self._block_off[group] + (
            np.arange(self.dim) - self._first[group]
        ) * (self._width[group] + 1)
        bounds = np.column_stack((self._block_row, self._block_row + rows))
        self.slices = [slice(*b) for b in bounds[:n_groups].tolist()]
        self._slabs = [slice(lo, hi) if hi > lo else None
                       for lo, hi in bounds[n_groups:].tolist()]

    def _blocks(self, flat: np.ndarray) -> tuple:
        """Views of the diagonal blocks and of the edge blocks (None at the
        root group) held in ``flat``."""
        n_groups = len(self.groups)
        spans = np.column_stack((
            self._block_off, np.append(self._block_off[1:], self._n_flat),
            np.tile(self._width, 2),
        )).tolist()
        views = [flat[lo:hi].reshape(-1, w) for lo, hi, w in spans]
        edges = [v if v.size else None for v in views[n_groups:]]
        return views[:n_groups], edges

    def _sweep_plan(self) -> list:
        """The cut of the groups into runs, as (first group, group count,
        width, attach rows) in elimination order.

        A run is a maximal stretch of consecutive groups of equal width
        and equal attach-row count in which the only member whose attach
        bag a group may hold is its predecessor.  Such a *link* (a chain's
        groups each attach to the next) couples two members through the
        attach bag's rows alone; every other member's attach bag lies in a
        later run, and its children in earlier ones.
        """
        n_groups = len(self.groups)
        w, r = self._width.tolist(), self._attach_rows.tolist()
        # the last group, other than its predecessor, whose attach bag
        # each group holds (-1: none)
        kids = np.flatnonzero(self._attach_rows)
        kids = kids[self._attach_group[kids] != kids + 1]
        last_kid = np.full(n_groups, -1)
        np.maximum.at(last_kid, self._attach_group[kids], kids)
        last_kid = last_kid.tolist()
        starts = [0]
        for k in range(1, n_groups):
            if w[k] != w[k - 1] or r[k] != r[k - 1] or (
                last_kid[k] >= starts[-1]
            ):
                starts.append(k)
        ends = starts[1:] + [n_groups]
        return [(a, b - a, w[a], r[a]) for a, b in zip(starts, ends)]

    def _sweep_views(self, plan) -> list:
        """The :class:`_Run` of each run of ``plan``, and the per-group
        factor steps of the runs of one group and of the runs with links.

        ``_steps[g]`` is group g's 2-D factor step: L's diagonal block and
        its transpose, the F-ordered upper triangle that dtrtrs reads, L's
        edge block, its transpose and its attach bag's block of L (None
        for the last three at the root group).
        ``_attach_idx`` is the permuted rows of every group's attach bag,
        concatenated in elimination order.
        """
        n_groups = len(self.groups)
        l_diag, l_off = self._l_blocks
        # each group's attach bag's first row in its group's block, and
        # that bag's block of L
        up = self._attach_group
        rel = self._block_row[n_groups:] - self._first[up]
        spans = np.column_stack((up, rel, self._attach_rows)).tolist()
        self._steps = [
            (ld, ld.T, lo, _t(lo), l_diag[p][a:a + r, a:a + r] if r else None)
            for ld, lo, (p, a, r) in zip(l_diag, l_off, spans)
        ]
        self._attach_idx = ranges(
            self._block_row[n_groups:], self._attach_rows
        )
        att_end = np.cumsum(self._attach_rows)
        # the members of each run that attach to the next member
        linked = [
            np.flatnonzero(up[k:k + n - 1] == np.arange(k + 1, k + n))
            for k, n, _, _ in plan
        ]
        self._linv_flat = np.empty(sum(
            n * w * w for _, n, w, _ in plan if n > 1
        ))
        self._link_flat = np.zeros(sum(
            _link_size(n, w, r, src.size)
            for (_, n, w, r), src in zip(plan, linked) if src.size
        ))
        inv_at = link_at = 0
        runs = []
        for (k, n, w, r), src in zip(plan, linked):
            rows = slice(self.slices[k].start, self.slices[k + n - 1].stop)
            blocks = links = None
            if n == 1:
                ld, lo = l_diag[k], l_off[k]
                inv, att = None, self._slabs[k]
            else:
                d0, e0 = self._block_off[k], self._block_off[k + n_groups]
                ld = _stack(self._l_flat, d0, n, w, w)
                lo = _stack(self._l_flat, e0, n, r, w)
                inv = _stack(self._linv_flat, inv_at, n, w, w)
                att = self._attach_idx[att_end[k] - r:att_end[k + n - 1]]
                if src.size:
                    links = self._links(n, w, r, src, rel[k + src], att,
                                        inv_at, link_at)
                    link_at += _link_size(n, w, r, src.size)
                else:
                    # the flat positions of the members' attach blocks in L
                    g = np.arange(k, k + n)
                    wu = self._width[up[g], None, None]
                    blocks = (
                        self._block_off[up[g], None, None]
                        + rel[g, None, None] * (wu + 1)
                        + np.arange(r)[:, None] * wu + np.arange(r)
                    ).ravel()
                inv_at += n * w * w
            runs.append(_Run(
                k, n, w, r, rows, ld, _t(ld), lo, _t(lo), inv, _t(inv), att,
                blocks, links,
            ))
        return runs

    def _links(self, n, w, r, src, at, att, inv_at, link_at) -> _Links:
        """The :class:`_Links` of a run of n groups of width w and r attach
        rows ``att``, whose members ``src`` attach to the next member at
        row ``at`` of its block.  The run's inverses lie in ``_linv_flat``
        from ``inv_at`` on; the band, the link columns and the back
        products in ``_link_flat`` from ``link_at`` on."""
        m = src.size
        size, kd = n * r, 2 * r - 1
        flat = self._link_flat
        lp_at = link_at + size * (kd + 1)
        u_at = lp_at + m * w * r
        # band column c holds the unknowns' rows c .. c + kd; link i's
        # (a, b) entry lies in band row r + a - b of column i r + b
        a, b = np.arange(r)[:, None], np.arange(r)
        band_pos = link_at + (src[:, None, None] * r + b) * (kd + 1) + (
            r + a - b
        )
        # columns at .. at + r of the next member's inverse
        lp_idx = inv_at + (src + 1)[:, None, None] * (w * w) + (
            np.arange(w)[:, None] * w + at[:, None, None] + b
        )
        b_src = np.zeros(size, dtype=np.int64)
        b_src.reshape(n, r)[src] = (src + 1)[:, None] * w + at[:, None] + b
        out = np.setdiff1d(np.arange(n), src)
        out_rows = (out[:, None] * r + b).ravel()
        return _Links(
            src, src + 1, lp_idx, flat[lp_at:u_at].reshape(m, w, r),
            flat[link_at:lp_at].reshape(size, kd + 1).T, band_pos.ravel(),
            flat[u_at:u_at + n * w * r].reshape(n, w, r),
            b_src, out_rows, att[out_rows],
        )

    def _kron_run_views(self) -> dict:
        """Order o -> the runs of the order-o bags' Kronecker blocks in H,
        as (first stack row, end stack row, view) triples.

        Row i of the order-o scaling stack belongs to the i-th order-o bag
        in block order, whose t x t Kronecker block (t = tri(o)) lies on
        its group block's diagonal.  An order-o bag continues the run of
        the order-o bag before it when both lie in one group, have the
        same width and lie next to each other in the buffer, so a run's
        blocks sit at one step along its group's diagonal and its view is
        one (rows, t, t) strided view into ``_l_flat``, where
        ``assemble_h`` writes H.  The runs of an order tile its stack, so
        the last one ends at its bag count.
        """
        h, item = self._l_flat, self._l_flat.itemsize
        at = self._diag_pos[self._bag_start]  # where each bag block starts
        order = self.ctc.order
        runs: dict = {}
        for o in dict.fromkeys(order.tolist()):
            bags = np.flatnonzero(order == o)
            group, width = self._group_of[bags], self.ctc.width[bags]
            w = self._width[group]
            step = width * (w + 1)  # from a bag block to the next one's
            lo = np.flatnonzero(np.append(True, (
                (group[1:] != group[:-1]) | (width[1:] != width[:-1])
                | (np.diff(at[bags]) != step[:-1])
            )))
            hi = np.append(lo[1:], bags.size)
            spans = np.column_stack(
                (lo, hi, at[bags[lo]], step[lo], w[lo])
            ).tolist()
            t = tri(o)
            # the buffer constructor raises if a view leaves _l_flat
            runs[o] = [
                (a, b, np.ndarray((b - a, t, t), h.dtype, h, at0 * item,
                                  (s * item, w * item, item)))
                for a, b, at0, s, w in spans
            ]
        return runs

    def _static_gram(self) -> tuple:
        """G^T G as a CSR matrix in the original coordinates, and the
        (flat positions, values) of the nonzeros that the flat layout
        stores.  Of the two mirror entries that couple a group with its
        attach bag, the one in the attach bag's rows is stored.

        scipy's sparse product sums each position of a column once, so
        its COO form holds no duplicates and needs no sort; the pairs come
        in the product's order, and ``assemble_h`` scatters them to
        distinct positions."""
        g = self.dualized.g_csr
        product = g.T @ g
        gtg = product.tocoo()
        rows = np.take(self._inv_perm, gtg.row)
        cols = np.take(self._inv_perm, gtg.col)
        br = self._bag_of[rows]
        bc = self._bag_of[cols]
        gc = self._group_of[bc]
        on_diag = self._group_of[br] == gc
        # off the diagonal blocks, keep bc topping its group below br, the
        # group's attach bag
        keep = on_diag | (self.ctc.td.parent[bc] == br)
        rows, cols, gc, on_diag = (
            rows[keep], cols[keep], gc[keep], on_diag[keep]
        )
        blk = np.where(on_diag, gc, gc + len(self.groups))
        pos = self._block_off[blk] + (rows - self._block_row[blk]) * (
            self._width[gc]
        )
        return product.tocsr(), pos + cols - self._first[gc], gtg.data[keep]

    # ------------------------------------------------------------------
    # per-iteration assembly and factorization
    # ------------------------------------------------------------------
    def assemble_h(self, sigma: float, psd_w: dict, nn_w2) -> None:
        """Build H = D_block + sigma * G^T G from the scaling data, in L's
        buffer, and keep its parts for ``apply_h``: sigma, each order's
        Kronecker stack and the slack scalings.

        ``psd_w[o]`` is the (g, o, o) stack of scaling matrices of the
        order-o blocks, in block order; ``nn_w2`` the squared scalings of
        every slack coordinate, in block order.  Chain coordinates carry
        no block-diagonal term.
        """
        # H counts as assembled once this call completes; the factor, the
        # parts and the rank-1 term of the previous H no longer apply
        self._h_in = None
        self.l_diag = []
        self.set_rank1(None)
        for o, runs in self._kron_runs.items():
            shape = np.shape(psd_w.get(o))
            if shape != (runs[-1][1], o, o):
                raise DimensionMismatch(
                    f"order-{o} scaling stack has shape {shape}, expected "
                    f"{(runs[-1][1], o, o)}"
                )
        nn_w2 = np.asarray(nn_w2, dtype=float)
        if nn_w2.shape != self._nn_pos.shape:
            raise DimensionMismatch(
                f"slack scalings have shape {nn_w2.shape}, expected "
                f"{self._nn_pos.shape}"
            )
        h = self._l_flat
        h.fill(0.0)  # the edge blocks hold the previous L's
        h[self._gtg_pos] = sigma * self._gtg_val
        for o, runs in self._kron_runs.items():
            kron = self._kron[o]
            np.copyto(kron, sym_kron_stack(psd_w[o]))
            for lo, hi, view in runs:
                view += kron[lo:hi]
        h[self._nn_pos] += nn_w2
        self._nn_w2[...] = nn_w2
        self.sigma = float(sigma)
        self._h_in = "buffer"

    def factor(self) -> None:
        """Block Cholesky along the group tree, children eliminated first,
        one run of the sweep plan per step.

        Eliminating a group updates only its attach bag's diagonal block
        in the parent group, so the factor's bag-level off-diagonal
        pattern equals that of H itself (no fill).  A static shift of
        ``1e-12 * (1 + max diagonal)`` is applied before pivoting.  L is
        written over the assembled H, so each assembly is factored once,
        and a run of several groups also writes its factors' inverses,
        which ``solve_h`` multiplies by; a run with links takes its
        members one at a time and then fills its band arrays.
        """
        if self._h_in != "buffer":
            raise StructureViolation("assemble_h must run before each factor")
        self._h_in = "parts"
        self.l_diag = []  # L counts as factored once this call completes
        work = self._l_flat
        if not np.isfinite(work).all():
            raise NotFinite("assembled normal matrix has non-finite entries")
        diag = np.take(work, self._diag_pos)
        max_diag = float(np.max(diag)) if diag.size else 0.0
        reg = REGULARIZATION_REL * (1.0 + max(max_diag, 0.0))
        work[self._diag_pos] += reg
        with lapack_errstate():
            for run in self._runs:
                k, n, links = run.k, run.n, run.links
                if n == 1:
                    self._factor_group(k)
                    continue
                if links is None:
                    self._cholesky(k, run.l_diag)
                else:
                    # each diagonal block waits for its predecessor's update
                    for g in range(k, k + n):
                        self._factor_group(g)
                # each factor's inverse, in place in its copy, from the
                # upper triangle of its F-ordered transpose
                np.copyto(run.inv, run.l_diag)
                for a in run.inv:
                    _, info = dtrtri(a.T, lower=0, overwrite_c=1)
                    if info != 0:
                        raise _trtrs_failed(info, "dtrtri")
                if links is None:
                    run.l_off[...] = run.l_off @ run.inv_t
                    # ufunc.at subtracts repeated positions (siblings that
                    # share an attach bag) in member order
                    np.subtract.at(self._l_flat, run.blocks,
                                   (run.l_off @ run.l_off_t).ravel())
                    continue
                np.take(self._linv_flat, links.lp_idx, out=links.lp)
                self._link_flat[links.band_pos] = (
                    run.l_off[links.dst] @ links.lp
                ).ravel()
                np.matmul(run.inv_t, run.l_off_t, out=links.u)
        self.l_diag, self.l_off = self._l_blocks
        self.n_factor += 1
        self.last_factor_ops = self._factor_ops

    def _cholesky(self, k, ld) -> None:
        """L's diagonal blocks ``ld`` of group k on, 2-D or stacked, in
        place; a failed block is named by its group's bags."""
        try:
            cholesky_lo(ld, out=ld)
        except np.linalg.LinAlgError as exc:
            # the gufunc writes NaN over each block it failed on
            failed = np.isnan(ld.reshape(-1, ld.shape[-1] ** 2))
            group = self.groups[k + int(np.argmax(failed.any(1)))]
            raise IndefinitePivot(
                f"diagonal block of bags {tuple(j + 1 for j in group)} is "
                "not positive definite"
            ) from exc

    def _factor_group(self, k):
        """Group k's factor step: its diagonal block, then its edge block
        L_off = H_off L^{-T}, solved over H_off in place as
        solve_triangular(ld, h_off.T, lower=True).T, then its update of
        its attach bag's block (none at the root group)."""
        ld, lt, l_off, l_off_t, attach = self._steps[k]
        self._cholesky(k, ld)
        if attach is None:
            return
        _, info = dtrtrs(lt, l_off_t, lower=0, trans=1, overwrite_b=1)
        if info != 0:
            raise _trtrs_failed(info)
        attach -= l_off @ l_off_t

    def set_rank1(self, q) -> None:
        """Install the rank-1 term and precompute its solve and denominator."""
        if q is None:
            self.q = None
            self._u_q = None
            self._denom = None
            return
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise DimensionMismatch(
                f"rank-1 vector has shape {q.shape}, expected ({self.dim},)"
            )
        u_q = self.solve_h(q)
        denom = 1.0 + float(q @ u_q)
        if denom <= DENOMINATOR_FLOOR:
            raise DenominatorUnderflow(
                f"1 + q^T H^-1 q = {denom:.3e} is below "
                f"{DENOMINATOR_FLOOR:.0e}"
            )
        self.q = q
        self._u_q = u_q
        self._denom = denom

    def update(self, sigma: float, q, psd_w: dict, nn_w2) -> None:
        """Assemble, factor, and install the rank-1 term in one call."""
        self.assemble_h(sigma, psd_w, nn_w2)
        self.factor()
        self.set_rank1(q)

    # ------------------------------------------------------------------
    # solves
    # ------------------------------------------------------------------
    def _as_columns(self, rhs):
        """``rhs`` as a (dim, k) array, not copied, and whether it was
        one vector."""
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        cols = rhs[:, None] if single else rhs
        if cols.shape[0] != self.dim:
            raise DimensionMismatch(
                f"right-hand side has {cols.shape[0]} rows, expected "
                f"{self.dim}"
            )
        return cols, single

    def solve_h(self, rhs):
        """H^{-1} rhs via the block factor (batched columns supported)."""
        if not self.l_diag:
            raise StructureViolation("factor must run before solve")
        cols, single = self._as_columns(rhs)
        if not np.isfinite(cols).all():
            raise NotFinite("normal-equation right-hand side has non-finite "
                            "entries")
        self.n_solve_columns += cols.shape[1]
        x = np.take(cols, self.perm, axis=0)
        k = x.shape[1]
        # dtrtrs on L^T: trans=1 solves with L, trans=0 with L^T, as
        # solve_triangular(L, b, lower=True, trans=...) calls it; a run
        # multiplies by its factors' inverses instead.  Each record is
        # unpacked once, which costs less than its attribute reads
        for (_, n, w, r, rows, _, l_diag_t, l_off, _, inv, _, att, _,
             links) in self._runs:
            if n == 1:
                yk, info = dtrtrs(l_diag_t, x[rows], lower=0, trans=1)
                if info != 0:
                    raise _trtrs_failed(info)
                x[rows] = yk
                if att is not None:
                    x[att] -= l_off @ yk
                continue
            y = inv @ x[rows].reshape(n, w, k)
            below = (l_off @ y).reshape(n * r, k)
            if links is not None:
                # the edge terms, each link's taken off the next member
                below, info = dtbtrs(links.band, below, uplo="L", diag="U",
                                     overwrite_b=1)
                if info != 0:
                    raise _trtrs_failed(info, "dtbtrs")
                y[links.dst] -= links.lp @ below.reshape(n, r, k)[links.src]
                below, att = below[links.out_rows], links.out_att
            x[rows] = y.reshape(n * w, k)
            # ufunc.at subtracts repeated rows in sequence, one column at a
            # time since on a 1-D operand it skips numpy's per-row subarray
            # loop
            for j in range(k):
                np.subtract.at(x[:, j], att, below[:, j])
        for (_, n, w, r, rows, _, l_diag_t, _, l_off_t, _, inv_t, att, _,
             links) in reversed(self._runs):
            if n == 1:
                t = x[rows]
                if att is not None:
                    t = t - l_off_t @ x[att]
                xk, info = dtrtrs(l_diag_t, t, lower=0, trans=0)
                if info != 0:
                    raise _trtrs_failed(info)
                x[rows] = xk
                continue
            y = x[rows].reshape(n, w, k)
            if links is None:
                t = y - l_off_t @ x[att].reshape(n, r, k)
                x[rows] = (inv_t @ t).reshape(n * w, k)
                continue
            # the attach rows' final values: a link's from the next
            # member's, the others' from a later run's
            v = inv_t @ y
            d = v.reshape(n * w, k)[links.b_src]
            d[links.out_rows] = x[links.out_att]
            d, info = dtbtrs(links.band, d, uplo="L", trans="T", diag="U",
                             overwrite_b=1)
            if info != 0:
                raise _trtrs_failed(info, "dtbtrs")
            x[rows] = (v - links.u @ d.reshape(n, r, k)).reshape(n * w, k)
        x = np.take(x, self._inv_perm, axis=0)
        return x[:, 0] if single else x

    def _rank1_correct(self, u):
        if self.q is None:
            return u
        coef = (self.q @ u) / self._denom
        return u - self._u_q[:, None] * coef

    def solve_with_rank1(self, rhs):
        """(H + q q^T)^{-1} rhs, with one iterative-refinement pass.

        The denominator 1 + q^T H^{-1} q from :meth:`set_rank1` is reused
        across all right-hand sides of a batch.
        """
        cols, single = self._as_columns(rhs)
        x = self._rank1_correct(self.solve_h(cols))
        resid = cols - self.apply_normal(x)
        self.n_refine += 1
        x = x + self._rank1_correct(self.solve_h(resid))
        return x[:, 0] if single else x

    # ------------------------------------------------------------------
    # operator applications and diagnostics
    # ------------------------------------------------------------------
    def apply_h(self, x):
        """H x from the parts of the assembled (unregularized) H, in the
        original coordinates: sigma (G^T G) x by one sparse product, then
        per order one stacked product of its Kronecker blocks with its
        bags' coordinates, then the slack scalings.  Each entry gets its
        terms in the order ``assemble_h`` adds them, and no buffer is
        read, so the result is the same before and after ``factor``.
        """
        if self._h_in is None:
            raise StructureViolation("assemble_h must run before apply_h")
        v, single = self._as_columns(x)
        out = self.sigma * (self._gtg @ v)
        for o, kron in self._kron.items():
            idx = self._kron_idx[o]
            out[idx] += kron @ np.take(v, idx, axis=0)
        nn = self._nn
        out[nn] += self._nn_w2[:, None] * v[nn]
        return out[:, 0] if single else out

    def apply_normal(self, x):
        out = self.apply_h(x)
        if self.q is not None:
            v = np.asarray(x, dtype=float)
            if out.ndim == 1:
                out = out + self.q * float(self.q @ v)
            else:
                out = out + self.q[:, None] * (self.q @ v)
        return out

    def pattern_stats(self) -> dict:
        """Block-pattern statistics, read off the static structure: H's
        off-diagonal bag blocks are the tree-adjacent pairs that share a
        row of G, and eliminating children first keeps L's the same."""
        return {
            "blocks": self.ell,
            "groups": len(self.groups),
            "offdiag_blocks": self._offdiag_blocks,
            "factor_offdiag_blocks": self._offdiag_blocks,
            "fill_blocks": 0,
            "flops_estimate": self._assemble_ops + self._factor_ops,
            "bytes": self.memory_bytes(),
            "sweep_steps": len(self._runs),
            "stacked_groups": sum(run.n for run in self._runs if run.n > 1),
        }

    def memory_bytes(self) -> int:
        """Bytes of the engine's numeric storage, allocated once: the buffer
        of H and L, the inverse factors of the runs of several groups, the
        band arrays of the runs with links, G^T G as (position, value)
        pairs and as a CSR matrix, H's parts that ``apply_h`` reads
        (tri(o)^2 Kronecker floats per order-o bag and one scaling per
        slack coordinate), the index arrays that the runs and ``apply_h``
        gather and scatter through, and q with its solve."""
        gtg = self._gtg
        index = sum(
            a.nbytes for run in self._runs
            for a in (run.blocks, *(run.links or ()))
            if a is not None and a.dtype.kind == "i"
        ) + sum(a.nbytes for a in self._kron_idx.values())
        return (
            self._l_flat.nbytes + self._linv_flat.nbytes
            + self._link_flat.nbytes
            + self._gtg_pos.nbytes + self._gtg_val.nbytes
            + gtg.data.nbytes + gtg.indices.nbytes + gtg.indptr.nbytes
            + self._kron_flat.nbytes + self._nn_w2.nbytes
            + self._attach_idx.nbytes + self._nn.nbytes + index
            + 2 * self.dim * self._l_flat.itemsize
        )


class DenseNormalSystem:
    """Reference solver: materializes N = M D^{-1} M^T densely."""

    def __init__(self, m_dense: np.ndarray):
        self.m = np.asarray(m_dense, dtype=float)
        self.dim = self.m.shape[0]
        self._factor = None
        self.n_factor = 0
        self.n_solve_columns = 0

    def update(self, d_inv_apply) -> None:
        """Rebuild and factor N given a D^{-1} column operator."""
        n = self.m @ d_inv_apply(self.m.T)
        n = 0.5 * (n + n.T)
        self._factor = dense_factor(n)
        self.n_factor += 1

    def solve(self, rhs):
        if self._factor is None:
            raise StructureViolation("update must run before solve")
        rhs = np.asarray(rhs, dtype=float)
        self.n_solve_columns += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self._factor.solve(rhs)

    def memory_bytes(self) -> int:
        """Bytes of M and of the factor the last ``update`` left."""
        fac = self._factor
        held = () if fac is None else (fac.chol_l, fac.eig_vals, fac.eig_vecs)
        return self.m.nbytes + sum(a.nbytes for a in held if a is not None)
