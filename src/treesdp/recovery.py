"""Low-rank positive-semidefinite completion and solution-quality metrics.

Given per-bag blocks of a partially specified symmetric matrix whose
specification pattern is covered by a tree decomposition, this module
produces a factor U with at most ``omega`` (largest bag size) columns such
that U·U^T agrees with every prescribed block.  It also evaluates the
standard accurate-decimal-digit scores (primal feasibility, dual
feasibility, duality gap) for a primal-dual iterate of a semidefinite
program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .chordal import TreeDecomposition
from .errors import (
    BlockNotPsd,
    DimensionMismatch,
    IndefinitePivot,
    NotFinite,
    OverlapMismatch,
)
from .model import SdpProblem

OVERLAP_TOL = 1e-6  # tree-adjacent blocks must agree on overlaps to this
SCORE_CAP = 16.0  # digit scores saturate at float precision
INERTIA_DIGITS = 1e-4  # bisection brackets end narrower than this, in log10
NUDGE_ULPS = 4.0  # first move of a shift that hits an eigenvalue, in ulps
MAX_NUDGES = 8


@dataclass
class LowRankFactor:
    """Tall factor ``U`` of a positive-semidefinite matrix ``U @ U.T``."""

    U: np.ndarray

    def __post_init__(self):
        self.U = np.atleast_2d(np.asarray(self.U, dtype=float))

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def rank(self) -> int:
        """Number of columns (an upper bound on the matrix rank)."""
        return self.U.shape[1]

    def matrix(self) -> np.ndarray:
        return self.U @ self.U.T

    def write(self, destination) -> None:
        """Write ``n r`` on the first line, then one row of U per line."""
        lines = [f"{self.n} {self.rank}\n"]
        for row in self.U:
            lines.append(" ".join(f"{v:.17g}" for v in row) + "\n")
        text = "".join(lines)
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                fh.write(text)


@dataclass
class Metrics:
    """Accurate-decimal-digit scores of a primal-dual iterate."""

    pinf: float
    dinf: float
    gap: float
    L: float
    iterations: int = 0
    time_per_iter_s: float = 0.0  # median wall time of one IPM iteration

    def to_json(self) -> str:
        return json.dumps(
            {
                "pinf": self.pinf,
                "dinf": self.dinf,
                "gap": self.gap,
                "L": self.L,
                "iters": self.iterations,
                "time_per_iter_s": self.time_per_iter_s,
            }
        )


def _psd_factor(block: np.ndarray, eps: float, label: str):
    """Project a bag block onto the PSD cone; returns the projected block
    and a factor F with ``F @ F.T`` equal to it.

    An interior-point answer at tolerance ``eps`` carries an O(eps) cone
    violation, so eigenvalues in ``[-cap, 0)``, with the cap
    ``100 * eps * (1 + lambda_max)``, are rounding debris and are clamped to
    zero; anything beyond the cap is a genuine failure and raises
    ``BlockNotPsd``.  A block with no negative eigenvalue is returned as it
    is.  F keeps the eigenvalues above the numerical-rank cutoff
    ``order * machine_eps * lambda_max``; the rest are zero to the accuracy
    of the eigendecomposition.
    """
    vals, vecs = np.linalg.eigh(0.5 * (block + block.T))
    if vals.size == 0:
        return block, vecs
    top = float(vals[-1])
    cap = 100.0 * eps * (1.0 + top)
    if vals[0] < -cap:
        raise BlockNotPsd(
            f"{label} has eigenvalue {vals[0]:.3e}, beyond the PSD cap "
            f"{-cap:.3e}"
        )
    keep = vals > vals.size * np.finfo(float).eps * max(top, 0.0)
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    if vals[0] < 0.0:
        block = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return block, factor


def complete_low_rank(
    blocks, td: TreeDecomposition, eps: float = 1e-8
) -> LowRankFactor:
    """Complete per-bag PSD blocks to a factor U with ``rank <= omega``.

    The traversal is root first.  Each bag's block is projected onto the
    PSD cone with the cap ``100 * eps * (1 + lambda_max(block))`` and
    factored as ``F F^T`` by the same eigendecomposition (see
    ``_psd_factor``), and its separator entries are checked against the
    parent's to ``OVERLAP_TOL``.  The rows of the separator B are already
    placed; the new vertices A get ``U_A = F_A Q``, where Q has orthonormal
    rows and best maps the separator rows onto the placed ones,
    ``F_B Q ~ U_B`` (orthogonal Procrustes: ``Q = Y Z^T`` from the SVD
    ``F_B^T U_B = Y S Z^T``).  Since ``Q Q^T = I``,
    ``U_A U_A^T = F_A F_A^T``, and ``U_A U_B^T = F_A F_B^T`` up to the
    disagreement of the two factorizations on B.  The directions of F that B does not
    see pair with columns orthogonal to the rows of U_B, so columns used by
    long-retired vertices are reused, and the column count never exceeds
    the largest rank of a bag block, at most omega.  No Schur complement
    is formed.  Cost is one eigendecomposition and one SVD of at most
    omega x omega per bag.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if len(blocks) != td.ell:
        raise DimensionMismatch(
            f"{len(blocks)} blocks for {td.ell} bags"
        )
    for j, bag in enumerate(td.bags):
        if blocks[j].shape != (len(bag), len(bag)):
            raise DimensionMismatch(
                f"block {j} has shape {blocks[j].shape}, bag size {len(bag)}"
            )

    u = np.zeros((td.n, td.omega))
    cols = 0  # columns of u in use so far
    for j in reversed(td.postorder()):  # parents before children
        bag = td.bags[j]
        sep = td.separator(j)
        own = [bag.index(v) for v in sep]
        blocks[j], f = _psd_factor(blocks[j], eps, f"bag {j} block")
        if own:
            p = int(td.parent[j])
            par = [td.bags[p].index(v) for v in sep]
            diff = np.max(
                np.abs(blocks[j][own][:, own] - blocks[p][par][:, par])
            )
            if diff > OVERLAP_TOL:
                raise OverlapMismatch(
                    f"bags {j} and {p} disagree on their overlap by "
                    f"{diff:.3e}"
                )
        new = [i for i in range(len(bag)) if i not in own]
        if not new:
            continue
        # an empty separator (the root, or a disconnected attachment)
        # leaves every column free for reuse
        cols = max(cols, f.shape[1])
        y, _, zt = np.linalg.svd(f[own].T @ u[list(sep), :cols])
        u[np.asarray(bag)[new], :cols] = f[new] @ (y @ zt[: f.shape[1]])

    return LowRankFactor(U=u[:, :cols])


def _digits(numerator: float, denominator: float) -> float:
    """-log10(numerator/denominator), saturated at SCORE_CAP digits for a
    nonpositive numerator."""
    if numerator <= 0.0:
        return SCORE_CAP
    return min(SCORE_CAP, float(-np.log10(numerator / denominator)))


class _Shifted:
    """tI - M for a sparse symmetric M, whose inertia answers whether an
    eigenvalue of M lies above t.

    M comes as lower-triangle triplets (duplicates summed).  tI - M is
    held once in CSC form with every diagonal entry stored, so each trial
    shift only rewrites the diagonal.  It is factored as P (tI - M) P^T =
    L D L^T with no pivoting, in SuperLU's minimum-degree order on the
    symmetric pattern, so fill stays inside a chordal extension of the
    pattern.  By Sylvester's law of inertia the number of negative
    pivots is the number of eigenvalues of M above t.
    """

    def __init__(self, n: int, rows, cols, vals):
        off = rows != cols
        diag = np.arange(n)
        self.mat = sp.csc_matrix(
            (
                np.concatenate([-vals, -vals[off], np.zeros(n)]),
                (
                    np.concatenate([rows, cols[off], diag]),
                    np.concatenate([cols, rows[off], diag]),
                ),
            ),
            shape=(n, n),
        )
        col = np.repeat(diag, np.diff(self.mat.indptr))
        on_diag = self.mat.indices == col
        self.diag_pos = np.flatnonzero(on_diag)
        self.m_diag = -self.mat.data[self.diag_pos]
        self.scale = float(np.max(np.abs(self.mat.data), initial=0.0))
        radius = np.bincount(
            col[~on_diag], weights=np.abs(self.mat.data[~on_diag]), minlength=n
        )
        # Gershgorin: no eigenvalue of M exceeds max_i (M_ii + radius_i),
        # nor, then, this bound clamped at 0
        self.upper = float(np.max(self.m_diag + radius, initial=0.0))

    def exceeds(self, t: float) -> bool:
        """Whether M has an eigenvalue above t.

        When t is an eigenvalue to working precision, SuperLU meets an
        exactly zero pivot: it reports the matrix singular, or exchanges
        rows.  The shift is then moved up by a few ulps of the matrix
        scale, doubling each time, and factored again.
        """
        nudge = NUDGE_ULPS * np.finfo(float).eps * max(self.scale, abs(t))
        for _ in range(MAX_NUDGES):
            self.mat.data[self.diag_pos] = t - self.m_diag
            try:
                lu = splu(
                    self.mat,
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError:  # "Factor is exactly singular"
                pass
            else:
                if np.array_equal(lu.perm_r, lu.perm_c):
                    return bool(np.any(lu.U.diagonal() < 0.0))
            t += nudge
            nudge *= 2.0
        raise IndefinitePivot(
            f"tI - M has a zero pivot for every shift tried up to t = {t:.3e}"
        )


def _bisect_top(above, lo: float, hi: float) -> float:
    """Narrow lo <= lambda <= hi, by the monotone test ``above(t)`` =
    (lambda > t) at geometric midpoints, until the bracket is narrower
    than INERTIA_DIGITS decimal digits; returns its geometric midpoint."""
    while np.log10(hi / lo) >= INERTIA_DIGITS:
        mid = np.sqrt(lo * hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def _spectral_norm(n: int, cost) -> float:
    """||C||_2 = max(lambda_max(C), lambda_max(-C)) by inertia bisection
    between max_i ||C e_i||_2 and the Gershgorin bound."""
    off = cost.rows != cost.cols
    col_sq = np.bincount(
        np.concatenate([cost.cols, cost.rows[off]]),
        np.concatenate([cost.vals, cost.vals[off]]) ** 2,
        n,
    )
    lo = float(np.sqrt(np.max(col_sq, initial=0.0)))
    if lo == 0.0:
        return 0.0
    plus = _Shifted(n, cost.rows, cost.cols, cost.vals)
    minus = _Shifted(n, cost.rows, cost.cols, -cost.vals)
    # a side whose Gershgorin bound is at most lo never exceeds a trial
    # shift
    sides = [side for side in (plus, minus) if side.upper > lo]
    return _bisect_top(
        lambda t: any(side.exceeds(t) for side in sides),
        lo,
        max(plus.upper, minus.upper),
    )


def dimacs_metrics(
    sdp: SdpProblem,
    factor: LowRankFactor,
    y: np.ndarray,
    iterations: int = 0,
    time_per_iter_s: float = 0.0,
) -> Metrics:
    """Accurate-digit scores of the iterate (X, y) with X = U U^T.

    The three scores are

    * pinf = -log10[ ||A(X) - b|| / (1 + ||b||) ]
    * dinf = -log10[ lambda_max(A^T(y) - C) / (1 + ||C||) ]
    * gap  = -log10[ |C.X - b'y| / (1 + |C.X| + |b'y|) ]

    each capped at 16 digits and saturated there when its numerator is
    zero (or, for the one-sided dinf, negative); L is the minimum of the
    three.

    No n x n matrix is formed.  <A_i, X> and C.X are sums over stored
    entries of w v (U[r] . U[c]), w = 1 on the diagonal and 2 off it.
    lambda_max(A^T(y) - C) and ||C|| come from inertia bisection (see
    ``_Shifted``) to INERTIA_DIGITS decimal digits, each test one sparse
    LDL^T factor in O(n omega^2).
    """
    u = factor.U
    y = np.asarray(y, dtype=float).ravel()
    n, m = sdp.n, sdp.m
    if u.shape[0] != n:
        raise DimensionMismatch(f"U has {u.shape[0]} rows, expected {n}")
    if y.shape != (m,):
        raise DimensionMismatch(f"y has length {y.shape[0]}, expected {m}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise NotFinite("U or y has non-finite entries")

    ids, rows, cols, vals = sdp.triplets
    weights = np.where(rows == cols, vals, 2.0 * vals)
    uu = np.einsum("ij,ij->i", u[rows], u[cols])
    values = np.bincount(ids, weights=weights * uu, minlength=m + 1)
    cx = float(values[m])

    res = values[:m] - sdp.b
    senses = np.asarray(sdp.senses)
    # one-sided for inequalities: a satisfied row contributes zero
    one_sided = np.maximum(0.0, np.where(senses == "ge", -res, res))
    pinf_num = float(
        np.linalg.norm(np.where(senses == "eq", np.abs(res), one_sided))
    )
    pinf = _digits(pinf_num, 1.0 + float(np.linalg.norm(sdp.b)))

    c_norm = _spectral_norm(n, sdp.cost)
    floor = 10.0**-SCORE_CAP * (1.0 + c_norm)
    # sum_i y_i A_i - C: the cost's entries carry row id m and weight -1
    slack = _Shifted(n, rows, cols, np.append(y, -1.0)[ids] * vals)
    top = 0.0  # lambda_max at or below the floor saturates dinf
    if slack.upper > floor and slack.exceeds(floor):
        top = _bisect_top(slack.exceeds, floor, slack.upper)
    dinf = _digits(top, 1.0 + c_norm)

    by = float(sdp.b @ y)
    gap = _digits(abs(cx - by), 1.0 + abs(cx) + abs(by))

    return Metrics(
        pinf=pinf,
        dinf=dinf,
        gap=gap,
        L=min(pinf, dinf, gap),
        iterations=iterations,
        time_per_iter_s=time_per_iter_s,
    )
