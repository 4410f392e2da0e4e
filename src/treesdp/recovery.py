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

from .chordal import TreeDecomposition
from .errors import BlockNotPsd, DimensionMismatch, OverlapMismatch
from .model import SdpProblem

OVERLAP_TOL = 1e-6  # tree-adjacent blocks must agree on overlaps to this
SCORE_CAP = 16.0  # digit scores saturate at float precision


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


def _sense_residuals(sdp: SdpProblem, values: np.ndarray) -> np.ndarray:
    """Per-row primal residuals honoring the row senses (one-sided for
    inequalities: a satisfied inequality contributes zero)."""
    res = values - sdp.b
    out = np.empty_like(res)
    for i, sense in enumerate(sdp.senses):
        if sense == "eq":
            out[i] = abs(res[i])
        elif sense == "ge":
            out[i] = max(0.0, -res[i])
        else:  # "le"
            out[i] = max(0.0, res[i])
    return out


def _digits(numerator: float, denominator: float) -> float:
    """-log10(numerator/denominator), saturated at SCORE_CAP digits for a
    nonpositive numerator."""
    if numerator <= 0.0:
        return SCORE_CAP
    return min(SCORE_CAP, float(-np.log10(numerator / denominator)))


def dimacs_metrics(
    sdp: SdpProblem,
    x,
    y: np.ndarray,
    iterations: int = 0,
    time_per_iter_s: float = 0.0,
) -> Metrics:
    """Accurate-digit scores of the iterate (X, y).

    ``x`` may be a dense symmetric matrix or a :class:`LowRankFactor`.
    The three scores are

    * pinf = -log10[ ||A(X) - b|| / (1 + ||b||) ]
    * dinf = -log10[ lambda_max(A^T(y) - C) / (1 + ||C||) ]
    * gap  = -log10[ |C.X - b'y| / (1 + |C.X| + |b'y|) ]

    each capped at 16 digits and saturated there when its numerator is
    zero (or, for the one-sided dinf, negative); L is the minimum of the
    three.
    """
    if isinstance(x, LowRankFactor):
        x = x.matrix()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = sdp.n
    if x.shape != (n, n):
        raise DimensionMismatch(f"X has shape {x.shape}, expected ({n},{n})")
    if y.shape != (sdp.m,):
        raise DimensionMismatch(f"y has length {y.shape[0]}, expected {sdp.m}")

    values = sdp.constraint_values(x)
    pinf_num = float(np.linalg.norm(_sense_residuals(sdp, values)))
    pinf = _digits(pinf_num, 1.0 + float(np.linalg.norm(sdp.b)))

    # accumulate sum_i y_i A_i - C by scattering triplets into one buffer
    # (densifying each A_i separately would allocate m full matrices)
    slack = -sdp.cost.to_dense()
    for yi, a in zip(y, sdp.constraints):
        scaled = yi * a.vals
        np.add.at(slack, (a.rows, a.cols), scaled)
        off = a.rows != a.cols
        if off.any():
            np.add.at(slack, (a.cols[off], a.rows[off]), scaled[off])
    eigs_slack = np.linalg.eigvalsh(slack)
    c_norm = float(np.max(np.abs(np.linalg.eigvalsh(sdp.cost.to_dense()))))
    dinf = _digits(float(eigs_slack[-1]), 1.0 + c_norm)

    cx = sdp.objective(x)
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
