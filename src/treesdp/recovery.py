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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf
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
# inertia tests go to the band Cholesky when (kd + 1) n is at most this
# many times the stored entries: measured, the band lost to SuperLU from
# about 26 times up, and took at most half its time below 16
BAND_FILL = 16.0


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
        row = ("%.17g " * self.rank)[:-1] + "\n"
        text = f"{self.n} {self.rank}\n" + (row * self.n) % tuple(
            self.U.ravel().tolist()
        )
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


def complete_low_rank(
    blocks, td: TreeDecomposition, eps: float = 1e-8
) -> LowRankFactor:
    """Complete per-bag PSD blocks to a factor U with ``rank <= omega``.

    Each block is projected onto the PSD cone and factored as ``F F^T``:
    eigenvalues in ``[-100 eps (1 + lambda_max), 0)``, an interior-point
    answer's O(eps) cone violation, are clamped to zero, and one beyond
    raises ``BlockNotPsd``.  F keeps the eigenvalues above ``order *
    machine_eps * lambda_max``.  A child's separator entries must match
    its parent's projected block to ``OVERLAP_TOL`` (``OverlapMismatch``).
    The first failure in root-first order is raised, PSD check first.

    A bag places the vertices its parent lacks as rows of ``F_j R_j``, with
    F padded by zero columns to r, the largest rank of a placing bag.
    ``R_j = P_j R_a`` is orthogonal: a is the nearest placing bag above j,
    and ``P_j = Y Z^T`` from the SVD ``F_j[B]^T F_a[B] = Y S Z^T`` best maps
    F_j's separator rows onto F_a's (orthogonal Procrustes).  So ``U_J
    U_J^T = F_j F_j^T``, and the directions the separator does not see go
    orthogonal to its rows: r <= omega columns, and no Schur complement.

    Cost: one stacked ``eigh`` per bag order, one stacked SVD of r x r
    matrices and ``ceil(log2 depth)`` stacked products that compose the
    R_j by pointer jumping.  Python touches each bag only to check and
    stack its block.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if len(blocks) != td.ell:
        raise DimensionMismatch(f"{len(blocks)} blocks for {td.ell} bags")
    for j, (bag, block) in enumerate(zip(td.bags, blocks)):
        if block.shape != (len(bag), len(bag)):
            raise DimensionMismatch(
                f"block {j + 1} has shape {block.shape}, bag size {len(bag)}"
            )
    ell, n, parent = td.ell, td.n, td.parent
    bags = np.arange(ell)

    # (bag, vertex) entries, bag after bag, and the parent's copy of each
    start, members, bag_of = td.bag_start, td.members, td.bag_of
    in_parent = td.parent_pos
    shared = in_parent >= 0
    sizes = np.diff(start)
    local = np.arange(members.size) - start[bag_of]
    sep = np.flatnonzero(shared)  # separator entries, child after child
    sep_size = np.bincount(bag_of[sep], minlength=ell)
    slot = np.arange(sep.size) - (np.cumsum(sep_size) - sep_size)[bag_of[sep]]
    # the children of a bag that places nothing (it lies inside its
    # parent) are rotated against the nearest placing bag above
    placer = (np.bincount(bag_of[~shared], minlength=ell) > 0) | (
        parent == bags
    )
    # the nearest placing bag at or above each bag, and each entry's copy
    # there: a bag that places nothing shares every vertex with its parent
    above = start[parent[bag_of]] + in_parent  # the parent's copy in members
    up = np.where(placer, bags, parent)
    copy = np.where(placer[bag_of], np.arange(members.size), above)
    for _ in range(ell.bit_length()):
        up = up[up]
        copy = copy[copy]
    anchor = up[parent]

    # one eigendecomposition per bag order; F rows right-aligned in omega
    # columns, since eigh puts the kept eigenvalues last
    sq_start = np.cumsum(sizes * sizes) - sizes * sizes
    projected = np.empty(int(np.sum(sizes * sizes)))  # row-major blocks
    low, cap = np.zeros(ell), np.full(ell, np.inf)
    rank = np.zeros(ell, dtype=np.int64)
    omega = int(np.max(sizes, initial=0))
    f = np.zeros((members.size + 1, omega))  # a zero row last, to pad
    for order in np.unique(sizes[sizes > 0]).tolist():
        grp = np.flatnonzero(sizes == order)
        mats = np.stack([blocks[j] for j in grp.tolist()])
        vals, vecs = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, 1, 2)))
        low[grp], cap[grp] = vals[:, 0], 100.0 * eps * (1.0 + vals[:, -1])
        keep = vals > order * np.finfo(float).eps * np.maximum(vals[:, -1:], 0)
        rank[grp] = keep.sum(axis=1)
        neg = vals[:, 0] < 0.0
        mats[neg] = (vecs[neg] * np.clip(vals[neg], 0.0, None)[:, None]) @ (
            np.swapaxes(vecs[neg], 1, 2)
        )
        at = sq_start[grp, None] + np.arange(order * order)
        projected[at] = mats.reshape(at.shape)
        f[start[grp, None] + np.arange(order), omega - order:] = (
            vecs * np.sqrt(vals * keep)[:, None]
        )

    # every pair of a child's separator entries against the parent's copy:
    # e1 repeats each entry once per entry of its child, e2 walks them
    reps = sep_size[bag_of[sep]]
    e1 = np.repeat(sep, reps)
    e2 = sep[
        np.arange(e1.size)
        + np.repeat(np.arange(sep.size) - slot + reps - np.cumsum(reps), reps)
    ]
    child, par = bag_of[e1], parent[bag_of[e1]]
    diff = np.abs(
        projected[sq_start[child] + local[e1] * sizes[child] + local[e2]]
        - projected[sq_start[par] + in_parent[e1] * sizes[par] + in_parent[e2]]
    )
    mismatch = np.zeros(ell)
    np.maximum.at(mismatch, child, diff)
    root_first = td.postorder()[::-1]
    failed = np.stack([low < -cap, mismatch > OVERLAP_TOL], axis=1)
    failed = failed[root_first].ravel()  # a bag's PSD check first
    if failed.any():
        j, overlap = divmod(int(np.argmax(failed)), 2)
        j = int(root_first[j])
        if overlap:
            raise OverlapMismatch(
                f"bags {j + 1} and {parent[j] + 1} disagree on their overlap "
                f"by {mismatch[j]:.3e}"
            )
        raise BlockNotPsd(
            f"bag {j + 1} block has eigenvalue {low[j]:.3e}, beyond the PSD "
            f"cap {-cap[j]:.3e}"
        )

    # P_j from one stacked SVD of F_j[B]^T F_a[B], separators padded
    r = int(np.max(rank[placer], initial=0))
    f = f[:, omega - r:]  # a placing bag keeps at most r columns
    kids = np.flatnonzero(placer & (parent != bags))
    own = np.full((ell, int(np.max(sep_size, initial=0))), members.size)
    own[bag_of[sep], slot] = sep
    at_anchor = np.full(members.size + 1, members.size)
    at_anchor[sep] = copy[above[sep]]
    at_anchor = at_anchor[own[kids]]
    rot = np.broadcast_to(np.eye(r), (ell, r, r)).copy()
    svd = np.linalg.svd(np.swapaxes(f[own[kids]], 1, 2) @ f[at_anchor])
    rot[kids] = svd.U @ svd.Vh
    del svd  # free its factors before the products below allocate theirs

    # R_j = P_j R_a by pointer jumping: rot[j] is the product from bag j
    # up to, not including, bag up[j]; a root's is I, and a bag that
    # places nothing is left out
    up = np.where(placer, anchor, bags)
    for _ in range(ell.bit_length()):
        live = np.flatnonzero(up[up] != up)
        rot[live] = rot[live] @ rot[up[live]]
        up[live] = up[up[live]]

    u = np.zeros((n, r))
    for order in np.unique(sizes[placer]).tolist():  # U_J = F_j R_j
        grp = np.flatnonzero(placer & (sizes == order))
        at = start[grp, None] + np.arange(order)
        new = ~shared[at]
        u[members[at[new]]] = (f[at] @ rot[grp])[new]
    return LowRankFactor(U=u)


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
    shift only rewrites the diagonal.  By Sylvester's law of inertia the
    number of negative pivots of an LDL^T factor with no pivoting is the
    number of eigenvalues of M above t.  Which factor answers is decided
    once, from the pattern's half bandwidth kd, the largest
    row-minus-column distance of a stored entry in the problem's own
    vertex order:

    * a narrow band, (kd + 1) n at most BAND_FILL times the stored
      entries, takes one LAPACK ``dpbtrf`` of the lower band of tI - M
      per test: a Cholesky factor with no fill outside the band (George &
      Liu, 1981), in O(n kd^2).  It stops at the first pivot that is not
      positive, a negative one answering yes;
    * every other pattern is factored as P (tI - M) P^T = L D L^T in
      SuperLU's minimum-degree order on the symmetric pattern, so fill
      stays inside a chordal extension of the pattern.

    Both see the same shifts, so the bisection's brackets do not depend
    on the choice.
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
        below = self.mat.indices - col  # row minus column
        kd = int(np.max(below, initial=0))
        self.band = None  # the lower band of -M, LAPACK storage
        if (kd + 1) * n <= BAND_FILL * self.mat.nnz:
            lower = below > 0
            self.band = np.zeros((kd + 1, n), order="F")
            self.band[below[lower], col[lower]] = self.mat.data[lower]
            self.work = np.empty_like(self.band)

    def exceeds(self, t: float) -> bool:
        """Whether M has an eigenvalue above t.

        When t is an eigenvalue to working precision, the factor meets an
        exactly zero pivot: ``dpbtrf`` stops there, and SuperLU reports
        the matrix singular or exchanges rows.  The shift is then moved up
        by a few ulps of the matrix scale, doubling each time, and
        factored again.
        """
        nudge = NUDGE_ULPS * np.finfo(float).eps * max(self.scale, abs(t))
        for _ in range(MAX_NUDGES):
            verdict = self._band(t) if self.band is not None else self._lu(t)
            if verdict is not None:
                return verdict
            t += nudge
            nudge *= 2.0
        raise IndefinitePivot(
            f"tI - M has a zero pivot for every shift tried up to t = {t:.3e}"
        )

    def _band(self, t: float):
        """Whether the band Cholesky of tI - M meets a negative pivot, or
        None when it meets an exactly zero one."""
        work = self.work
        np.copyto(work, self.band)
        np.subtract(t, self.m_diag, out=work[0])
        _, info = dpbtrf(work, lower=1, overwrite_ab=1)
        if info == 0:
            return False
        # dpbtrf leaves the pivot it stopped at in the band
        return True if work[0, info - 1] < 0.0 else None

    def _lu(self, t: float):
        """Whether SuperLU's LDL^T of tI - M has a negative pivot, or None
        when it meets an exactly zero one."""
        self.mat.data[self.diag_pos] = t - self.m_diag
        try:
            lu = splu(
                self.mat,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError:  # "Factor is exactly singular"
            return None
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        return bool(np.any(lu.U.diagonal() < 0.0))


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
    ``_Shifted``) to INERTIA_DIGITS decimal digits, whichever factor
    answers the tests.  A test is one band Cholesky in O(n kd^2) when the
    pattern's half bandwidth kd in its own vertex order is narrow, (kd +
    1) n at most BAND_FILL times the stored entries, and otherwise one
    sparse LDL^T factor in O(n omega^2).
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
    )
