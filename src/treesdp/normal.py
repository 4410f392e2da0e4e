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
and no fill.  The factor and the triangular solves are LAPACK or BLAS
calls per group or per run of like groups (see Sweeps), and storage stays
linear in the number of bags: a merged group of w coordinates holds
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
follows, and L after it, and each assembly is factored once; its last
entry stays zero.  Each run of several groups (see Sweeps) keeps its L
in an array of its own, one LAPACK lower band over the run's rows, kd + 1
floats per row.  G^T G is kept as the (position, value) pairs of its
nonzeros in that layout, since merged blocks are mostly zeros, and as one
CSR matrix in the original coordinates for ``apply_h``.  The slack
scalings, the static shift and the finiteness checks are one vectorized
pass each: ``factor`` checks the assembled H and ``solve_h`` its
right-hand side, once per call, and both raise
:class:`~treesdp.errors.NotFinite`.  The
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
ones.  So the members of a run depend on one another in neither sweep
but through the r overlap rows of its links (level scheduling of a
sparse triangular solve; Anderson & Saad 1989): a star's leaf groups
form a run without links, and a chain's groups one in which each member
but the last is a link.  Each run is one record that both walk, of one
of two kinds.

A run of one group keeps its 2-D blocks and the per-group steps:
``cholesky_lo``, then ``dtrtrs`` (in ``factor`` in place in the edge
block, which holds H's until then), then slices.

A run of n > 1 groups is a band matrix: its half bandwidth kd, the
largest row-minus-column distance at which the factor may meet a
nonzero inside the run, is read once off the static pattern (George &
Liu, Computer Solution of Large Sparse Positive Definite Systems, 1981).
On a chain of order-2 bags kd is 2 against a group width of 30, and the
band holds no entry between two members that are not linked.
``factor`` gathers the band of H from the buffer through one fixed
index, after the earlier runs' updates have landed, and factors it by
one LAPACK ``dpbtrf``.  A member that attaches outside the run has its
edge block L_off^T = L^{-1} H_off^T solved by ``dtbtrs`` over its own
columns of the band alone, since L has no fill: the rows of the band it
reaches belong to members it does not couple with.  The members' edge
blocks are one (n, r, w) view, and ``factor`` subtracts those members'
updates from their attach blocks by one ``np.subtract.at`` over fixed flat
positions, which takes repeated positions (siblings that share an attach
bag) in member order.  ``solve_h`` takes one ``dtbtrs`` per direction
over the run, scattering those members' edge terms after the forward one
the same way, subtracting repeated attach rows in sequence, and taking
their terms off the run's rows before the backward one.  So a star's
leaf groups form one run and its hub another, as do a path's groups and
its root group, and each sweep takes two steps there at any size.  Every
block is a view into the normal matrix's or the band buffer, fixed for
the engine's life, and no workspace outlives a call.

``apply_h`` reads none of the buffers above, so it gives the same H x
before and after ``factor``.  It forms H x from H's parts, which
``assemble_h`` writes, beside H, into arrays allocated with the engine:
sigma (G^T G) x by one sparse product, then each order's Kronecker
stack (tri(o)^2 floats per bag) by one stacked product over its bags'
coordinates and the slack scalings' terms, all stacked and added by one
gather, whose 0.0 slot serves the chain coordinates.  It works in the
original coordinates and permutes nothing.  Each entry gets its terms in
the order ``assemble_h`` adds them, so H times a unit vector is H's
column to the last bit, but for the sign of an exact zero.

Solves.  ``(H + q q^T) v = r`` is solved for batched right-hand sides by
the matrix-inversion lemma, with the denominator ``1 + q^T H^{-1} q``
computed once per factorization, followed by exactly one
iterative-refinement pass.  A run of several groups solves with its
band, so its floats differ from the per-group sweep's in the last bits;
a run of one group gives that sweep's floats exactly.  The pass is
unconditional: when a residual tolerance decided it, rounding noise
decided which directions were refined, and the final dual infeasibility
of a solve followed that noise.

``DenseNormalSystem`` is the small-scale reference: it materializes the
full normal matrix ``M D^{-1} M^T`` densely and factors it directly.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbtrf, dtbtrs, dtrtrs

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


class _Run(NamedTuple):
    """One step of the sweep plan: the n groups from k on, of width w and
    r attach rows, whose permuted coordinates are ``rows``.

    A run of one group holds its 2-D blocks of L, their transposes, its
    attach bag's slice ``att`` and, as ``blocks``, its view of that bag's
    block (None at the root group, as are its edge blocks).  A run of
    n > 1 groups holds strided (n, r, w) views of its edge blocks; L's
    lower ``band`` over its rows, an F-ordered (kd + 1, n w) array in
    LAPACK band storage, which ``factor`` fills from ``_l_flat`` through
    ``gather``; ``out``, its members that attach outside it, with their
    attach rows ``att``, and ``sel``, the same members as a slice where
    they are consecutive (as all are in a run without links), which picks
    their blocks without a copy; and, as ``blocks``, the flat positions in
    ``_l_flat`` of the attach blocks that those members update, in order.
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
    att: object
    blocks: np.ndarray
    band: np.ndarray
    gather: np.ndarray
    out: np.ndarray
    sel: object


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
        # G^T G's permuted rows and columns serve only the runs' bandwidths
        self._gtg, self._gtg_pos, self._gtg_val, gtg_ij = self._static_gram()
        # each assembly writes H here and factor overwrites it with L, in
        # place, through fixed block views; assemble_h zeroes the last
        # entry too, which the band gathers read
        self._l_flat = np.empty(self._n_flat + 1)
        self._l_blocks = self._blocks(self._l_flat)
        self._runs = self._sweep_views(self._sweep_plan(), *gtg_ij)
        del gtg_ij
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
        # each coordinate's row in apply_h's stack of Kronecker and slack
        # terms, whose last row is the 0.0 of the chain coordinates
        termed = np.concatenate(
            [idx.ravel() for idx in self._kron_idx.values()] + [self._nn]
        )
        self._term_row = np.full(self.dim, termed.size)
        self._term_row[termed] = np.arange(termed.size)
        self._assemble_ops = int(np.sum(width * width)) + sum(
            runs[-1][1] * tri(o) * tri(o) * o
            for o, runs in self._kron_runs.items()
        )
        # a run of one group takes w^3 / 3 + w for its diagonal block and
        # w r (w + r) for its edge block and update; a run of several takes
        # n w (kd^2 + 1) for its band and w r (kd + r) per member
        # attaching outside it
        self._factor_ops = 0
        for run in self._runs:
            w, r = run.w, run.r
            if run.n == 1:
                self._factor_ops += w ** 3 // 3 + w + w * r * (w + r)
            else:
                kd = run.band.shape[0] - 1
                self._factor_ops += run.n * w * (kd * kd + 1) + (
                    run.out.size * w * r * (kd + r)
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

    def _sweep_views(self, plan, i, j) -> list:
        """The :class:`_Run` of each run of ``plan``; (``i``, ``j``) are
        the permuted rows and columns of G^T G's nonzeros."""
        n_groups = len(self.groups)
        l_diag, l_off = self._l_blocks
        # each group's attach bag's first row in its group's block
        up = self._attach_group
        rel = self._block_row[n_groups:] - self._first[up]
        runs, spans = [], np.column_stack((up, rel)).tolist()
        for (k, n, w, r), kd in zip(plan, self._bandwidths(plan, i, j)):
            rows = slice(self.slices[k].start, self.slices[k + n - 1].stop)
            if n == 1:
                # the 2-D factor step's blocks, and the attach block
                (p, a), ld, lo = spans[k], l_diag[k], l_off[k]
                attach = l_diag[p][a:a + r, a:a + r] if r else None
                runs.append(_Run(k, n, w, r, rows, ld, _t(ld), lo, _t(lo),
                                 self._slabs[k], attach, None, None, None,
                                 None))
                continue
            # the members' edge blocks lie one after another in _l_flat
            at = self._block_off[k + n_groups]
            lo = self._l_flat[at:at + n * r * w].reshape(n, r, w)
            # the members that attach to the next one, and the others
            src = up[k:k + n - 1] == np.arange(k + 1, k + n)
            out = np.flatnonzero(~np.append(src, False))
            sel = (slice(out[0], out[-1] + 1)
                   if out[-1] - out[0] == out.size - 1 else out)
            gather = self._band_gather(k, n, w, r, kd, src, rel[k:k + n])
            # the outside members' attach rows, and the flat positions of
            # their attach blocks in L
            g = k + out
            att = ranges(self._block_row[n_groups + g], np.full(g.size, r))
            wu = self._width[up[g], None, None]
            blocks = (
                self._block_off[up[g], None, None]
                + rel[g, None, None] * (wu + 1)
                + np.arange(r)[:, None] * wu + np.arange(r)
            ).ravel()
            runs.append(_Run(k, n, w, r, rows, None, None, lo, _t(lo), att,
                             blocks, np.empty((n * w, kd + 1)).T, gather,
                             out, sel))
        return runs

    def _bandwidths(self, plan, i, j) -> list:
        """Each run's half bandwidth kd: the largest distance i - j from a
        column j of the run to a row i of it at which the factor may meet
        a nonzero.  That is an entry of G^T G inside the run, one of a
        bag's Kronecker block, or one of a group's update of its attach
        block, which spans the attach rows G^T G couples with the group
        (they follow the group's rows).  A band Cholesky fills only inside
        the band.  (``i``, ``j``) are the permuted rows and columns of
        G^T G's nonzeros."""
        run_of = np.repeat(np.arange(len(plan)),
                           [n * w for _, n, w, _ in plan])
        kd = np.zeros(len(plan), dtype=np.int64)
        inside = run_of[i] == run_of[j]
        np.maximum.at(kd, run_of[i[inside]], np.abs(i - j)[inside])
        np.maximum.at(kd, run_of[self._bag_start], tri(self.ctc.order) - 1)
        group = self._group_of[self._bag_of]
        cross = (i > j) & (group[i] != group[j])
        lo, hi = np.full((2, len(self.groups)), [[self.dim], [-1]])
        np.minimum.at(lo, group[j[cross]], i[cross])
        np.maximum.at(hi, group[j[cross]], i[cross])
        has = hi >= 0
        np.maximum.at(kd, run_of[lo[has]], (hi - lo)[has])
        return kd.tolist()

    def _band_gather(self, k, n, w, r, kd, src, rel) -> np.ndarray:
        """The positions in ``_l_flat`` of the band of the run of n groups
        from k on, of width w and r attach rows, with half bandwidth kd:
        entry (j, d) of the (n w, kd + 1) result holds H's entry in row
        j + d and column j of the run, d rows below the diagonal entry of
        column j when both lie in one member.  Member i attaches to the
        next one where ``src[i]``, at row ``rel[i]`` of its block.  An
        entry outside the members' diagonal blocks and the links' edge
        blocks points at the zero slot that ends ``_l_flat``."""
        d = np.arange(kd + 1)
        mj, cj = np.divmod(np.arange(n * w), w)
        below = cj[:, None] + d  # the row in member mj's block
        a = below - (w + rel[mj])[:, None]  # the row in mj's edge block
        link = np.append(src, False)[mj, None] & (a >= 0) & (a < r)
        edge = self._block_off[len(self.groups) + k + mj] + cj
        diag = self._diag_pos[self.slices[k].start:][:n * w]
        return np.where(
            below < w, diag[:, None] + d * w,
            np.where(link, edge[:, None] + a * w, self._n_flat),
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
        """G^T G as a CSR matrix in the original coordinates, the (flat
        positions, values) of the nonzeros that the flat layout stores,
        and the permuted (rows, columns) of all its nonzeros.  Of the two
        mirror entries that couple a group with its attach bag, the one in
        the attach bag's rows is stored.

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
        i, j, gc, on_diag = rows[keep], cols[keep], gc[keep], on_diag[keep]
        blk = np.where(on_diag, gc, gc + len(self.groups))
        pos = self._block_off[blk] + (i - self._block_row[blk]) * (
            self._width[gc]
        )
        return (product.tocsr(), pos + j - self._first[gc], gtg.data[keep],
                (rows, cols))

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
        written over the assembled H, so each assembly is factored once.
        A run of several groups gathers its band of H and factors it in
        place by one LAPACK ``dpbtrf``; the edge block of each member
        attaching outside the run needs only that member's columns of the
        band, since L has no fill.
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
                if run.n == 1:
                    self._factor_group(run)
                    continue
                # the band of H, after the earlier runs' updates
                np.take(self._l_flat, run.gather, out=run.band.T)
                _, info = dpbtrf(run.band, lower=1, overwrite_ab=1)
                if info > 0:
                    raise self._not_pd(run.k + (info - 1) // run.w)
                # L_off^T = L^{-1} H_off^T over the member's own columns
                for i in run.out.tolist():
                    cols = slice(i * run.w, (i + 1) * run.w)
                    _, info = dtbtrs(run.band[:, cols], run.l_off_t[i],
                                     uplo="L", overwrite_b=1)
                    if info != 0:
                        raise _trtrs_failed(info, "dtbtrs")
                l_off = run.l_off[run.sel]
                # ufunc.at subtracts repeated positions (siblings that share
                # an attach bag) in member order
                np.subtract.at(self._l_flat, run.blocks,
                               (l_off @ _t(l_off)).ravel())
        self.l_diag, self.l_off = self._l_blocks
        self.n_factor += 1
        self.last_factor_ops = self._factor_ops

    def _not_pd(self, k) -> IndefinitePivot:
        """The error that names group k's bags, which failed to factor."""
        group = self.groups[k]
        return IndefinitePivot(
            f"diagonal block of bags {tuple(j + 1 for j in group)} is "
            "not positive definite"
        )

    def _factor_group(self, run):
        """A run of one group's factor step: its diagonal block, then its
        edge block L_off = H_off L^{-T}, solved over H_off in place as
        solve_triangular(ld, h_off.T, lower=True).T, then its update of
        its attach bag's block (none at the root group)."""
        try:
            cholesky_lo(run.l_diag, out=run.l_diag)
        except np.linalg.LinAlgError as exc:
            raise self._not_pd(run.k) from exc
        if run.blocks is None:
            return
        _, info = dtrtrs(run.l_diag_t, run.l_off_t, lower=0, trans=1,
                         overwrite_b=1)
        if info != 0:
            raise _trtrs_failed(info)
        run.blocks[...] -= run.l_off @ run.l_off_t

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
        # solve_triangular(L, b, lower=True, trans=...) calls it; a run of
        # several groups solves with its band.  Each record is unpacked
        # once, which costs less than its attribute reads
        for (_, n, w, r, rows, _, l_diag_t, l_off, _, att, _, band, _, _,
             sel) in self._runs:
            if n == 1:
                yk, info = dtrtrs(l_diag_t, x[rows], lower=0, trans=1)
                if info != 0:
                    raise _trtrs_failed(info)
                x[rows] = yk
                if att is not None:
                    x[att] -= l_off @ yk
                continue
            x[rows], info = dtbtrs(band, x[rows], uplo="L")
            if info != 0:
                raise _trtrs_failed(info, "dtbtrs")
            y = x[rows].reshape(n, w, k)
            below = (l_off[sel] @ y[sel]).reshape(-1, k)
            # ufunc.at subtracts repeated rows in sequence, one column at a
            # time since on a 1-D operand it skips numpy's per-row subarray
            # loop
            for j in range(k):
                np.subtract.at(x[:, j], att, below[:, j])
        for (_, n, w, r, rows, _, l_diag_t, l_off, l_off_t, att, _, band, _,
             _, sel) in reversed(self._runs):
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
            y[sel] -= _t(l_off[sel]) @ x[att].reshape(-1, r, k)
            x[rows], info = dtbtrs(band, x[rows], uplo="L", trans="T")
            if info != 0:
                raise _trtrs_failed(info, "dtbtrs")
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
        each order's stacked product of its Kronecker blocks with its bags'
        coordinates and the slack scalings' terms, stacked and added by one
        gather, which adds 0.0 to a chain coordinate.  Each entry gets its
        terms in the order ``assemble_h`` adds them, and no buffer is read,
        so the result is the same before and after ``factor``.
        """
        if self._h_in is None:
            raise StructureViolation("assemble_h must run before apply_h")
        v, single = self._as_columns(x)
        k = v.shape[1]
        terms = [
            (kron @ np.take(v, self._kron_idx[o], axis=0)).reshape(-1, k)
            for o, kron in self._kron.items()
        ] + [self._nn_w2[:, None] * v[self._nn], np.zeros((1, k))]
        out = self.sigma * (self._gtg @ v)
        out += np.take(np.concatenate(terms), self._term_row, axis=0)
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
        of H and L, the bands of the runs of several groups, G^T G as
        (position, value) pairs and as a CSR matrix, H's parts that
        ``apply_h`` reads (tri(o)^2 Kronecker floats per order-o bag and
        one scaling per slack coordinate), the index arrays that the runs
        and ``apply_h`` gather and scatter through, and q with its solve."""
        gtg = self._gtg
        runs = sum(
            a.nbytes for run in self._runs if run.n > 1
            for a in (run.blocks, run.band, run.gather, run.out, run.att)
        )
        return (
            self._l_flat.nbytes + runs
            + self._gtg_pos.nbytes + self._gtg_val.nbytes
            + gtg.data.nbytes + gtg.indices.nbytes + gtg.indptr.nbytes
            + self._kron_flat.nbytes + self._nn_w2.nbytes
            + sum(a.nbytes for a in self._kron_idx.values())
            + self._nn.nbytes + self._term_row.nbytes
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
