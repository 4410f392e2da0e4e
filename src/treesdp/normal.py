"""Block-tree normal-equation engine.

The dualized block-tree program has a normal matrix of the form

    N = H + q q^T,      H = D_block + sigma * G^T G,

where ``D_block`` is block diagonal over the per-bag coordinate blocks
(dense symmetric-Kronecker blocks on the matrix coordinates, squared
scalings on the slack coordinates, zeros on the chain coordinates) and
every row of ``G`` touches coordinates of at most two tree-adjacent
bags.  Consequently H has nonzero off-diagonal bag blocks only on tree
edges, and a block Cholesky factorization that eliminates children
before parents produces no fill.

Groups.  A bag of order 2 has 3 coordinates, and at that size the fixed
cost of a Python step and a LAPACK call per block outweighs the
arithmetic.  So the engine works on *groups* of bags, as relaxed
supernode amalgamation does (Ashcraft & Grimes, ACM TOMS 1989).
:func:`group_bags` walks the bags in postorder.  It merges each child's
group into its parent's while the merged width stays within
``GROUP_WIDTH`` coordinates, and packs the children that did not fit into
sibling groups under the same cap; a bag wider than the cap stays alone.
The top bags of a group share one parent, the group's *attach bag*, which
lies in the parent group.  So the groups form a tree, and every bag edge
lies inside a group or joins a group to its attach bag.  Each group's
members are eliminated in postorder, so the bag blocks that are zero in H
stay exactly zero in L (:meth:`TreeNormalSystem.nonzero_bag_pairs`).

Storage.  The coordinates are permuted once so that each group is one
contiguous slice, its members in postorder; ``solve_h`` and ``apply_h``
gather and scatter once per call.  H lives in one flat buffer: each
group's dense diagonal block, then each group's edge block, which holds
only the attach bag's rows.  L lives in a second buffer of the same
layout, which ``factor`` overwrites in place.  G^T G is kept as the
(position, value) pairs of its nonzeros in that layout, since merged
blocks are mostly zeros.  The slack scalings, the static shift and the
finiteness checks are one vectorized pass each: ``factor`` checks the
assembled H and ``solve_h`` its right-hand side, once per call, and both
raise :class:`~treesdp.errors.NotFinite`.  The symmetric-Kronecker blocks
are added one bag at a time through precomputed views into their group
blocks: an index array over every Kronecker entry (1.4 MB of int64 on a
random graph with 18-vertex bags, plus a temporary as large) raised the
peak memory of a whole solve there by 2-3 %.  The per-group triangular
solves call LAPACK ``dtrtrs`` directly, with the operands and flags
``scipy.linalg.solve_triangular`` would pass, so every result is the same
to the last bit without the per-call argument validation.

Solves.  ``(H + q q^T) v = r`` is solved for batched right-hand sides by
the matrix-inversion lemma, with the denominator ``1 + q^T H^{-1} q``
computed once per factorization, followed by exactly one
iterative-refinement pass.  The pass is unconditional: when a residual
tolerance decided it, rounding noise decided which directions were
refined, and the final dual infeasibility of a solve followed that noise.

``DenseNormalSystem`` is the small-scale reference: it materializes the
full normal matrix ``M D^{-1} M^T`` densely and factors it directly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .chordal import TreeDecomposition
from .convert import DualizedProblem
from .errors import (
    DenominatorUnderflow,
    DimensionMismatch,
    IndefinitePivot,
    NotFinite,
    StructureViolation,
)
from .linalg import dense_factor, sym_kron_stack, tri

REGULARIZATION_REL = 1e-12
DENOMINATOR_FLOOR = 1e-14
# Largest merged group, in coordinates.  Caps 24 and 32 were faster on a
# chain of width-2 bags but raised a whole solve's peak memory there by
# 1.2 % and 1.9 %.
GROUP_WIDTH = 16


def _solve_lower(lj: np.ndarray, b: np.ndarray, trans: int = 0):
    """``L^{-1} b`` (trans=0) or ``L^{-T} b`` (trans=1) for a C-ordered
    lower-triangular L.

    The LAPACK call ``solve_triangular(lj, b, lower=True, trans=trans)``
    makes: dtrtrs on the F-ordered upper triangle ``L^T`` with the
    transpose flag flipped.  ``b`` is copied, never overwritten.
    """
    x, info = dtrtrs(lj.T, b, lower=0, trans=1 - trans)
    if info != 0:
        raise IndefinitePivot(
            f"triangular solve failed: LAPACK dtrtrs info = {info}"
        )
    return x


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
    parent = td.parent.tolist()
    children = [[] for _ in range(td.ell)]
    for j in td.postorder():
        if parent[j] != j:
            children[parent[j]].append(j)
    members = [None] * td.ell  # bag -> its open group, in postorder
    width = [0] * td.ell
    groups = []
    for j in td.postorder():
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


class TreeNormalSystem:
    """Assemble, factor, and solve the block-tree normal equations."""

    def __init__(self, dualized: DualizedProblem):
        ctc = dualized.ctc
        self.dualized = dualized
        self.ctc = ctc
        td = ctc.td
        self.ell = td.ell
        # Python ints: the per-group loops index lists with them
        self.parent = td.parent.tolist()
        self.dim = ctc.dim_z
        self.blocks = ctc.blocks

        self._check_row_structure()
        self.groups = group_bags(
            td, [b.width for b in self.blocks], GROUP_WIDTH
        )
        self._layout()
        self._gtg_pos, self._gtg_val = self._static_gram()
        # H and L are rewritten in place every iteration, through fixed
        # block views; L's diagonal blocks start as H's shifted copy
        self._h_flat = np.empty(self._n_flat)
        self._h_blocks = self._blocks(self._h_flat)
        self._l_flat = np.empty(self._n_flat)
        self._l_blocks = self._blocks(self._l_flat)
        # order -> views of the order-o bags' Kronecker blocks in H, in
        # block order: row k of the order-o scaling stack goes to view k
        self._kron_views: dict = {}
        h_diag = self._h_blocks[0]
        for j, b in enumerate(self.blocks):
            k = self._group_of[j]
            a = self._bag_start[j] - self.slices[k].start
            t = b.svec_len
            self._kron_views.setdefault(b.order, []).append(
                h_diag[k][a:a + t, a:a + t]
            )
        # flat positions of the slack coordinates' diagonal entries, in
        # block order (the order of the slack scaling vector)
        self._nn_pos = self._diag_pos[
            self._inv_perm[
                np.concatenate(
                    [np.arange(b.nn_start, b.end, dtype=np.int64)
                     for b in self.blocks]
                )
            ]
        ]
        self._assemble_ops = sum(
            b.width * b.width for b in self.blocks
        ) + sum(
            len(views) * tri(o) * tri(o) * o
            for o, views in self._kron_views.items()
        )
        self._factor_ops = 0
        for sl, rows in zip(self.slices, self._parent_rows):
            w = sl.stop - sl.start
            self._factor_ops += w ** 3 // 3 + w
            if rows is not None:
                wp = rows.stop - rows.start
                self._factor_ops += w * w * wp + w * wp * wp

        # per-factorization state
        self.h_diag: list = []
        self.h_off: list = []  # per group; None for the root group
        self.l_diag: list = []
        self.l_off: list = []
        self.sigma = 0.0
        self.q = None
        self._u_q = None
        self._denom = None

        # instrumentation
        self.n_assemble = 0
        self.n_factor = 0
        self.n_solve_columns = 0
        self.n_refine = 0
        self.last_assemble_ops = 0
        self.last_factor_ops = 0
        self._peak_bytes = 0

    # ------------------------------------------------------------------
    # static structure
    # ------------------------------------------------------------------
    def _check_row_structure(self) -> None:
        for r, blocks in enumerate(self.ctc.block_of_row):
            if len(blocks) > 2:
                raise StructureViolation(
                    f"row {r} touches blocks {blocks}; a tree-structured "
                    "normal matrix needs at most two tree-adjacent blocks "
                    "per row"
                )
            if len(blocks) == 2:
                a, b = blocks
                if self.parent[a] != b and self.parent[b] != a:
                    raise StructureViolation(
                        f"row {r} touches blocks {a} and {b}, which are not "
                        "adjacent in the block tree"
                    )

    def _layout(self) -> None:
        """The permuted coordinates and the flat layout of the blocks.

        Permuted coordinate i is original coordinate ``perm[i]``.  Group
        k holds the permuted coordinates ``slices[k]``, bag j those from
        ``_bag_start[j]``.  Group k's edge block couples it with the rows
        ``_slabs[k]`` of its attach bag, which are ``_parent_rows[k]``
        within the parent group ``group_parent[k]``.  The flat buffers
        hold every group's diagonal block, then every edge block; row
        ``i`` of ``_spans`` is block i's (flat offset, first row, rows,
        first column, columns).
        """
        self._group_of = [0] * self.ell
        self._bag_start = [0] * self.ell
        self.slices = []
        pos = 0
        for k, members in enumerate(self.groups):
            lo = pos
            for j in members:
                self._group_of[j] = k
                self._bag_start[j] = pos
                pos += self.blocks[j].width
            self.slices.append(slice(lo, pos))
        if pos != self.dim:
            raise DimensionMismatch(
                "block layout does not tile the coordinate space"
            )
        bags = [j for members in self.groups for j in members]
        widths = [self.blocks[j].width for j in bags]
        self.perm = np.concatenate(
            [
                np.arange(self.blocks[j].svec_start,
                          self.blocks[j].end, dtype=np.int64)
                for j in bags
            ]
        )
        self._inv_perm = np.empty_like(self.perm)
        self._inv_perm[self.perm] = np.arange(self.dim, dtype=np.int64)
        self._bag_of = np.repeat(np.array(bags, dtype=np.int64), widths)

        self.group_parent, self._slabs, self._parent_rows = [], [], []
        for k, members in enumerate(self.groups):
            b = self.parent[members[-1]]  # the last member is a top bag
            if b == members[-1]:
                self.group_parent.append(k)
                self._slabs.append(None)
                self._parent_rows.append(None)
                continue
            p = self._group_of[b]
            lo = self._bag_start[b]
            hi = lo + self.blocks[b].width
            self.group_parent.append(p)
            self._slabs.append(slice(lo, hi))
            base = self.slices[p].start
            self._parent_rows.append(slice(lo - base, hi - base))

        spans = []
        pos = 0
        for sl in self.slices:
            w = sl.stop - sl.start
            spans.append((pos, sl.start, w, sl.start, w))
            pos += w * w
        self._n_diag = pos
        for sl, slab in zip(self.slices, self._slabs):
            if slab is not None:
                w, rows = sl.stop - sl.start, slab.stop - slab.start
                spans.append((pos, slab.start, rows, sl.start, w))
                pos += rows * w
        self._n_flat = pos
        self._spans = np.array(spans, dtype=np.int64).reshape(-1, 5)
        self._diag_pos = np.concatenate(
            [
                lo + np.arange(w, dtype=np.int64) * (w + 1)
                for lo, _, w, _, _ in spans[:len(self.groups)]
            ]
        )

    def _blocks(self, flat: np.ndarray) -> tuple:
        """Views of the diagonal blocks and of the edge blocks (None at the
        root group) held in ``flat``."""
        views = [
            flat[lo:lo + rows * cols].reshape(rows, cols)
            for lo, _, rows, _, cols in self._spans.tolist()
        ]
        n_groups = len(self.groups)
        edges = iter(views[n_groups:])
        return views[:n_groups], [
            None if slab is None else next(edges) for slab in self._slabs
        ]

    def _static_gram(self) -> tuple:
        """(flat positions, values) of the nonzeros of G^T G that the flat
        layout stores.  Of the two mirror entries that couple a group with
        its attach bag, the one in the attach bag's rows is stored."""
        g = self.dualized.g_csr
        gtg = (g.T @ g).tocoo()
        gtg.sum_duplicates()
        rows = self._inv_perm[gtg.row]
        cols = self._inv_perm[gtg.col]
        br = self._bag_of[rows]
        bc = self._bag_of[cols]
        parent = np.asarray(self.parent, dtype=np.int64)
        adjacent = (br == bc) | (parent[bc] == br) | (parent[br] == bc)
        if not adjacent.all():  # pragma: no cover - excluded by the row check
            k = int(np.argmin(adjacent))
            raise StructureViolation(
                f"G^T G has an entry coupling non-adjacent blocks "
                f"{br[k]} and {bc[k]}"
            )
        group_of = np.asarray(self._group_of, dtype=np.int64)
        gc = group_of[bc]
        on_diag = group_of[br] == gc
        # off the diagonal blocks, keep bc topping its group below br, the
        # group's attach bag
        keep = on_diag | (parent[bc] == br)
        rows, cols, gc, on_diag = (
            rows[keep], cols[keep], gc[keep], on_diag[keep]
        )
        has_edge = np.array([slab is not None for slab in self._slabs])
        edge_span = np.cumsum(has_edge) - 1 + len(self.groups)
        span = self._spans[np.where(on_diag, gc, edge_span[gc])]
        lo, row0, _, col0, ncols = span.T
        return lo + (rows - row0) * ncols + cols - col0, gtg.data[keep]

    # ------------------------------------------------------------------
    # per-iteration assembly and factorization
    # ------------------------------------------------------------------
    def assemble_h(self, sigma: float, psd_w: dict, nn_w2) -> None:
        """Build H = D_block + sigma * G^T G from the scaling data.

        ``psd_w[o]`` is the (g, o, o) stack of scaling matrices of the
        order-o blocks, in block order; ``nn_w2`` the squared scalings of
        every slack coordinate, in block order.  Chain coordinates carry
        no block-diagonal term.
        """
        self.h_diag = []  # H counts as assembled once this call completes
        for o, views in self._kron_views.items():
            shape = np.shape(psd_w.get(o))
            if shape != (len(views), o, o):
                raise DimensionMismatch(
                    f"order-{o} scaling stack has shape {shape}, expected "
                    f"{(len(views), o, o)}"
                )
        nn_w2 = np.asarray(nn_w2, dtype=float)
        if nn_w2.shape != self._nn_pos.shape:
            raise DimensionMismatch(
                f"slack scalings have shape {nn_w2.shape}, expected "
                f"{self._nn_pos.shape}"
            )
        h = self._h_flat
        h.fill(0.0)
        h[self._gtg_pos] = sigma * self._gtg_val
        for o, views in self._kron_views.items():
            for view, kron in zip(views, sym_kron_stack(psd_w[o])):
                view += kron
        h[self._nn_pos] += nn_w2
        self.h_diag, self.h_off = self._h_blocks
        self.sigma = float(sigma)
        self.n_assemble += 1
        self.last_assemble_ops = self._assemble_ops
        self._note_bytes()

    def factor(self) -> None:
        """Block Cholesky along the group tree, children eliminated first.

        Eliminating a group updates only its attach bag's diagonal block
        in the parent group, so the factor's bag-level off-diagonal
        pattern equals that of H itself (no fill).  A static shift of
        ``1e-12 * (1 + max diagonal)`` is applied before pivoting.  L is
        written over the previous factor.
        """
        if not self.h_diag:
            raise StructureViolation("assemble_h must run before factor")
        self.l_diag = []  # L counts as factored once this call completes
        if not np.isfinite(self._h_flat).all():
            raise NotFinite("assembled normal matrix has non-finite entries")
        diag = self._h_flat[self._diag_pos]
        max_diag = float(np.max(diag)) if diag.size else 0.0
        reg = REGULARIZATION_REL * (1.0 + max(max_diag, 0.0))
        work = self._l_flat[:self._n_diag]
        np.copyto(work, self._h_flat[:self._n_diag])
        work[self._diag_pos] += reg
        l_diag, l_off = self._l_blocks
        h_off = self.h_off
        for k, rows in enumerate(self._parent_rows):
            try:
                lk = np.linalg.cholesky(l_diag[k])
            except np.linalg.LinAlgError as exc:
                raise IndefinitePivot(
                    f"diagonal block of bags {self.groups[k]} is not "
                    "positive definite"
                ) from exc
            l_diag[k][...] = lk
            if rows is not None:
                r = _solve_lower(lk, h_off[k].T).T
                l_off[k][...] = r
                l_diag[self.group_parent[k]][rows, rows] -= r @ r.T
        self.l_diag, self.l_off = l_diag, l_off
        self.n_factor += 1
        self.last_factor_ops = self._factor_ops
        self._note_bytes()

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
        self._note_bytes()

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
        x = cols[self.perm]
        l_diag, l_off = self.l_diag, self.l_off
        slices, slabs = self.slices, self._slabs
        for k, sl in enumerate(slices):
            yk = _solve_lower(l_diag[k], x[sl])
            x[sl] = yk
            slab = slabs[k]
            if slab is not None:
                x[slab] -= l_off[k] @ yk
        for k in range(len(slices) - 1, -1, -1):
            sl = slices[k]
            t = x[sl]
            slab = slabs[k]
            if slab is not None:
                t = t - l_off[k].T @ x[slab]
            x[sl] = _solve_lower(l_diag[k], t, trans=1)
        x = x[self._inv_perm]
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
        """H x using the assembled (unregularized) blocks."""
        v, single = self._as_columns(x)
        v = v[self.perm]
        out = np.zeros_like(v)
        h_diag, h_off = self.h_diag, self.h_off
        for k, (sl, slab) in enumerate(zip(self.slices, self._slabs)):
            out[sl] += h_diag[k] @ v[sl]
            if slab is not None:
                out[slab] += h_off[k] @ v[sl]
                out[sl] += h_off[k].T @ v[slab]
        out = out[self._inv_perm]
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

    def _bag_pairs(self, flat: np.ndarray) -> np.ndarray:
        """Distinct bag pairs (a, b), a after b in the permuted order, whose
        sub-block of the lower triangle held in ``flat`` is nonzero."""
        pos = np.flatnonzero(flat)
        lo, row0, _, col0, ncols = self._spans.T
        blk = np.searchsorted(lo, pos, side="right") - 1
        local = pos - lo[blk]
        rows = row0[blk] + local // ncols[blk]
        cols = col0[blk] + local % ncols[blk]
        a, b = self._bag_of[rows], self._bag_of[cols]
        keep = (rows > cols) & (a != b)
        ids = np.unique(a[keep] * self.ell + b[keep])
        return np.column_stack(np.divmod(ids, self.ell))

    def nonzero_bag_pairs(self) -> tuple:
        """The off-diagonal bag pairs with a nonzero sub-block in H and in
        L, each a (k, 2) array of (later bag, earlier bag) rows.  The
        merged group blocks store every bag pair of a group, so a pair of
        bags that are not adjacent in the tree appears here exactly when
        it has filled in."""
        none = np.zeros((0, 2), dtype=np.int64)
        return (
            self._bag_pairs(self._h_flat) if self.h_diag else none,
            self._bag_pairs(self._l_flat) if self.l_diag else none,
        )

    def offdiag_block_counts(self):
        """(nonzero off-diagonal bag blocks of H, of L) — equal when no
        fill."""
        in_h, in_l = self.nonzero_bag_pairs()
        return len(in_h), len(in_l)

    def pattern_stats(self) -> dict:
        in_h, in_l = self.offdiag_block_counts()
        return {
            "blocks": self.ell,
            "groups": len(self.groups),
            "offdiag_blocks": in_h,
            "factor_offdiag_blocks": in_l,
            "fill_blocks": in_l - in_h,
            "flops_estimate": int(
                self.last_assemble_ops + self.last_factor_ops
            ),
            "bytes": self.memory_bytes(),
        }

    def _note_bytes(self) -> None:
        held = self._gtg_pos.nbytes + self._gtg_val.nbytes
        if self.h_diag:
            held += self._h_flat.nbytes
        if self.l_diag:
            held += self._l_flat.nbytes
        for vec in (self.q, self._u_q):
            if vec is not None:
                held += vec.nbytes
        self._peak_bytes = max(self._peak_bytes, held)

    def memory_bytes(self) -> int:
        """Peak bytes held in block storage (allocation counter)."""
        self._note_bytes()
        return self._peak_bytes


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
        return int(self.m.nbytes * 2)
