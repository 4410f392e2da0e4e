"""Block-tree normal-equation engine.

The dualized block-tree program has a normal matrix of the form

    N = H + q q^T,      H = D_block + sigma * G^T G,

where ``D_block`` is block diagonal over the per-bag coordinate blocks
(dense symmetric-Kronecker blocks on the matrix coordinates, squared
scalings on the slack coordinates, zeros on the chain coordinates) and
every row of ``G`` touches coordinates of at most two tree-adjacent
blocks.  Consequently H has nonzero off-diagonal blocks only on tree
edges, and a block Cholesky factorization that eliminates children
before parents produces no fill: eliminating a child updates only its
parent's diagonal block.

``TreeNormalSystem`` assembles H from per-iteration scaling data in the
form the cone calculus produces: for each bag order o, one (g, o, o)
stack of the scaling matrices of the order-o blocks, and one vector of
the squared slack scalings, both in block order (the cone's segment
order).  It factors H bottom-up along the tree, and solves
``(H + q q^T) v = r`` for batched right-hand sides by the
matrix-inversion lemma, with the denominator ``1 + q^T H^{-1} q``
computed once per factorization and a single iterative-refinement pass.

The blocks of H live in one flat buffer, so the slack scalings, the
static shift and the finiteness check are one vectorized pass each:
``factor`` checks the assembled blocks and ``solve_h`` its right-hand
side, once per call, and raise :class:`~treesdp.errors.NotFinite`.  The
symmetric-Kronecker blocks are added one block at a time through the
block views instead: an index array over every Kronecker entry (1.4 MB of
int64 on a random graph with 18-vertex bags, plus a temporary as large)
raised the peak memory of a whole solve there by 2-3 %.  The per-block
triangular solves call LAPACK ``dtrtrs`` directly, with the operands and
flags ``scipy.linalg.solve_triangular`` would pass, so every result is
the same to the last bit without the per-call argument validation.

``DenseNormalSystem`` is the small-scale reference: it materializes the
full normal matrix ``M D^{-1} M^T`` densely and factors it directly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .convert import ConvertedProblem, DualizedProblem
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
REFINE_REL_TOL = 1e-9


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


def plain_row_coupling(ctc: ConvertedProblem) -> set:
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


class TreeNormalSystem:
    """Assemble, factor, and solve the block-tree normal equations."""

    def __init__(self, dualized: DualizedProblem):
        ctc = dualized.ctc
        self.dualized = dualized
        self.ctc = ctc
        td = ctc.td
        self.ell = td.ell
        # Python ints: the per-block loops index lists with them
        self.parent = td.parent.tolist()
        self.order = td.postorder()  # block elimination order
        self.dim = ctc.dim_z

        self.blocks = ctc.blocks
        self.slices = [
            slice(b.svec_start, b.svec_start + b.width) for b in self.blocks
        ]
        self._parent_slices = [
            None if p == j else self.slices[p]
            for j, p in enumerate(self.parent)
        ]

        self._check_row_structure()
        self._layout()
        self._gtg_flat = self._static_gram_blocks()
        # H and the factor's shifted copy of its diagonal blocks are
        # rewritten in place every iteration, through fixed block views
        self._h_flat = np.empty(self._n_flat)
        self._h_blocks = (
            self._diag_blocks(self._h_flat),
            self._off_blocks(self._h_flat),
        )
        self._work_flat = np.empty(self._n_diag)
        self._work = self._diag_blocks(self._work_flat)
        # blocks of each order, in block order: row k of the order-o
        # scaling stack belongs to block _order_groups[o][k]
        self._order_groups: dict = {}
        for j, b in enumerate(self.blocks):
            self._order_groups.setdefault(b.order, []).append(j)
        # flat positions of the slack coordinates' diagonal entries, in
        # block order (the order of the slack scaling vector)
        self._nn_pos = self._diag_pos[
            np.concatenate(
                [np.arange(b.nn_start, b.end, dtype=np.int64)
                 for b in self.blocks]
            )
        ]
        self._assemble_ops = sum(
            b.width * b.width for b in self.blocks
        ) + sum(
            len(idxs) * tri(o) * tri(o) * o
            for o, idxs in self._order_groups.items()
        )
        self._factor_ops = 0
        for j, b in enumerate(self.blocks):
            w = b.width
            self._factor_ops += w ** 3 // 3 + w
            if self.parent[j] != j:
                wp = self.blocks[self.parent[j]].width
                self._factor_ops += w * w * wp + w * wp * wp

        # per-factorization state
        self.h_diag: list = []
        self.h_off: list = []  # keyed by child block index (None for root)
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
        """Offsets of the blocks in one flat buffer: every diagonal block
        (w_j x w_j) in block order, then every edge block (w_p x w_j)."""
        self._diag_spans = []
        pos = 0
        for b in self.blocks:
            self._diag_spans.append((pos, b.width))
            pos += b.width * b.width
        self._n_diag = pos
        self._off_spans = []
        for j, p in enumerate(self.parent):
            if p == j:
                self._off_spans.append(None)
            else:
                self._off_spans.append((pos, self.blocks[p].width))
                pos += self.blocks[p].width * self.blocks[j].width
        self._n_flat = pos
        self._diag_pos = np.concatenate(
            [
                lo + np.arange(w, dtype=np.int64) * (w + 1)
                for lo, w in self._diag_spans
            ]
        )

    def _diag_blocks(self, flat: np.ndarray) -> list:
        """Views of the diagonal blocks held in ``flat``."""
        return [
            flat[lo:lo + w * w].reshape(w, w) for lo, w in self._diag_spans
        ]

    def _off_blocks(self, flat: np.ndarray) -> list:
        """Views of the edge blocks held in ``flat`` (None at the root)."""
        return [
            None
            if span is None
            else flat[span[0]:span[0] + span[1] * b.width].reshape(
                span[1], b.width
            )
            for span, b in zip(self._off_spans, self.blocks)
        ]

    def _static_gram_blocks(self) -> np.ndarray:
        """Dense sub-blocks of G^T G on the diagonal and on tree edges,
        in the flat layout.  Of the two mirror entries that couple a child
        with its parent, the one in the parent's block row is stored."""
        g = self.dualized.g_csr
        gtg = (g.T @ g).tocoo()
        starts = np.array([b.svec_start for b in self.blocks], dtype=np.int64)
        widths = np.array([b.width for b in self.blocks], dtype=np.int64)
        block_of_coord = np.repeat(np.arange(self.ell, dtype=np.int64), widths)
        if block_of_coord.size != self.dim:
            raise DimensionMismatch(
                "block layout does not tile the coordinate space"
            )

        parent = np.asarray(self.parent, dtype=np.int64)
        br = block_of_coord[gtg.row]
        bc = block_of_coord[gtg.col]
        on_diag = br == bc
        on_edge = parent[bc] == br  # br is bc's parent (or both the root)
        adjacent = on_diag | on_edge | (parent[br] == bc)
        if not adjacent.all():  # pragma: no cover - excluded by the row check
            k = int(np.argmin(adjacent))
            raise StructureViolation(
                f"G^T G has an entry coupling non-adjacent blocks "
                f"{br[k]} and {bc[k]}"
            )
        diag_lo = np.array([lo for lo, _ in self._diag_spans], dtype=np.int64)
        off_lo = np.array(
            [0 if span is None else span[0] for span in self._off_spans],
            dtype=np.int64,
        )
        lo = np.where(on_diag, diag_lo[bc], off_lo[bc])
        pos = lo + (gtg.row - starts[br]) * widths[bc] + gtg.col - starts[bc]
        keep = on_diag | on_edge
        flat = np.zeros(self._n_flat)
        np.add.at(flat, pos[keep], gtg.data[keep])
        return flat

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
        for o, idxs in self._order_groups.items():
            shape = np.shape(psd_w.get(o))
            if shape != (len(idxs), o, o):
                raise DimensionMismatch(
                    f"order-{o} scaling stack has shape {shape}, expected "
                    f"{(len(idxs), o, o)}"
                )
        nn_w2 = np.asarray(nn_w2, dtype=float)
        if nn_w2.shape != self._nn_pos.shape:
            raise DimensionMismatch(
                f"slack scalings have shape {nn_w2.shape}, expected "
                f"{self._nn_pos.shape}"
            )
        np.multiply(self._gtg_flat, sigma, out=self._h_flat)
        h_diag, h_off = self._h_blocks
        for o, idxs in self._order_groups.items():
            kron = sym_kron_stack(psd_w[o])
            t = tri(o)
            for pos, j in enumerate(idxs):
                h_diag[j][:t, :t] += kron[pos]
        self._h_flat[self._nn_pos] += nn_w2
        self.h_diag = h_diag
        self.h_off = h_off
        self.sigma = float(sigma)
        self.n_assemble += 1
        self.last_assemble_ops = self._assemble_ops
        self._note_bytes()

    def factor(self) -> None:
        """Block Cholesky along the tree, children eliminated first.

        Eliminating a child updates only its parent's diagonal block, so
        the factor's off-diagonal block pattern equals the lower block
        pattern of H itself (no fill).  A static shift of
        ``1e-12 * (1 + max diagonal)`` is applied before pivoting.
        """
        if not self.h_diag:
            raise StructureViolation("assemble_h must run before factor")
        if not np.isfinite(self._h_flat).all():
            raise NotFinite("assembled normal matrix has non-finite entries")
        diag = self._h_flat[self._diag_pos]
        max_diag = float(np.max(diag)) if diag.size else 0.0
        reg = REGULARIZATION_REL * (1.0 + max(max_diag, 0.0))
        np.copyto(self._work_flat, self._h_flat[:self._n_diag])
        self._work_flat[self._diag_pos] += reg
        work = self._work
        h_off = self.h_off
        l_diag = [None] * self.ell
        l_off = [None] * self.ell
        for j in self.order:
            try:
                lj = np.linalg.cholesky(work[j])
            except np.linalg.LinAlgError as exc:
                raise IndefinitePivot(
                    f"diagonal block {j} (bag {self.ctc.blocks[j].bag}) is "
                    "not positive definite"
                ) from exc
            l_diag[j] = lj
            p = self.parent[j]
            if p != j:
                r = _solve_lower(lj, h_off[j].T).T
                l_off[j] = r
                work[p] -= r @ r.T
        self.l_diag = l_diag
        self.l_off = l_off
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
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        cols = rhs.reshape(self.dim, -1).copy() if single else rhs.copy()
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
        x, single = self._as_columns(rhs)
        if not np.isfinite(x).all():
            raise NotFinite("normal-equation right-hand side has non-finite "
                            "entries")
        self.n_solve_columns += x.shape[1]
        l_diag, l_off = self.l_diag, self.l_off
        slices, parent_slices = self.slices, self._parent_slices
        for j in self.order:
            sl = slices[j]
            yj = _solve_lower(l_diag[j], x[sl])
            x[sl] = yj
            slp = parent_slices[j]
            if slp is not None:
                x[slp] -= l_off[j] @ yj
        for j in reversed(self.order):
            sl = slices[j]
            t = x[sl]
            slp = parent_slices[j]
            if slp is not None:
                t = t - l_off[j].T @ x[slp]
            x[sl] = _solve_lower(l_diag[j], t, trans=1)
        return x[:, 0] if single else x

    def _rank1_correct(self, u):
        if self.q is None:
            return u
        coef = (self.q @ u) / self._denom
        return u - self._u_q[:, None] * coef

    def solve_with_rank1(self, rhs):
        """(H + q q^T)^{-1} rhs with one refinement pass if needed.

        The denominator 1 + q^T H^{-1} q from :meth:`set_rank1` is reused
        across all right-hand sides of a batch.
        """
        cols, single = self._as_columns(rhs)
        x = self._rank1_correct(self.solve_h(cols))
        resid = cols - self.apply_normal(x)
        need = np.linalg.norm(resid, axis=0) > REFINE_REL_TOL * (
            1.0 + np.linalg.norm(cols, axis=0)
        )
        if bool(np.any(need)):
            self.n_refine += 1
            x = x + self._rank1_correct(self.solve_h(resid))
        return x[:, 0] if single else x

    # ------------------------------------------------------------------
    # operator applications and diagnostics
    # ------------------------------------------------------------------
    def apply_h(self, x):
        """H x using the assembled (unregularized) blocks."""
        v, single = self._as_columns(x)
        out = np.zeros_like(v)
        h_diag, h_off = self.h_diag, self.h_off
        for j, (sl, slp) in enumerate(zip(self.slices, self._parent_slices)):
            out[sl] += h_diag[j] @ v[sl]
            if slp is not None:
                out[slp] += h_off[j] @ v[sl]
                out[sl] += h_off[j].T @ v[slp]
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

    def h_dense(self) -> np.ndarray:
        """Assembled H as a dense matrix (small instances, tests)."""
        h = np.zeros((self.dim, self.dim))
        for j in range(self.ell):
            sl = self.slices[j]
            h[sl, sl] = self.h_diag[j]
            p = int(self.parent[j])
            if p != j:
                h[self.slices[p], sl] = self.h_off[j]
                h[sl, self.slices[p]] = self.h_off[j].T
        return h

    def reconstruct_dense(self) -> np.ndarray:
        """L L^T as a dense matrix (small instances, tests)."""
        n = self.dim
        lfull = np.zeros((n, n))
        offsets = np.zeros(self.ell, dtype=np.int64)
        acc = 0
        for j in self.order:
            offsets[j] = acc
            acc += self.blocks[j].width
        perm = np.concatenate(
            [np.arange(self.dim)[self.slices[j]] for j in self.order]
        )
        for j in range(self.ell):
            o = offsets[j]
            w = self.blocks[j].width
            lfull[o:o + w, o:o + w] = self.l_diag[j]
            p = self.parent[j]
            if p != j:
                op = offsets[p]
                wp = self.blocks[p].width
                lfull[op:op + wp, o:o + w] = self.l_off[j]
        rec = lfull @ lfull.T
        out = np.zeros((n, n))
        out[np.ix_(perm, perm)] = rec
        return out

    def offdiag_block_counts(self):
        """(nonzero off-diagonal blocks of H, of L) — equal when no fill."""
        in_h = sum(
            1
            for blk in self.h_off
            if blk is not None and bool(np.any(blk != 0.0))
        )
        in_l = sum(
            1
            for blk in self.l_off
            if blk is not None and bool(np.any(blk != 0.0))
        )
        return in_h, in_l

    def pattern_stats(self) -> dict:
        in_h, in_l = self.offdiag_block_counts()
        return {
            "blocks": self.ell,
            "offdiag_blocks": in_h,
            "factor_offdiag_blocks": in_l,
            "fill_blocks": in_l - in_h,
            "flops_estimate": int(
                self.last_assemble_ops + self.last_factor_ops
            ),
            "bytes": self.memory_bytes(),
        }

    def _note_bytes(self) -> None:
        # H, L and the static G^T G blocks share one shape per block
        held = self._gtg_flat.nbytes * (
            1 + bool(self.h_diag) + bool(self.l_diag)
        )
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
