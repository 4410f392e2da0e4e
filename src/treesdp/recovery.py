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
PINV_CUTOFF = 1e-10  # relative eigenvalue cutoff for pseudo-inverses
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


def _project_psd(block: np.ndarray, eps: float, label: str):
    """Project a bag block onto the PSD cone; returns the projected block
    and its cap ``100 * eps * (1 + lambda_max)``.

    An interior-point answer at tolerance ``eps`` carries an O(eps) cone
    violation, so eigenvalues in ``[-cap, 0)`` are rounding debris and are
    clamped to zero; anything beyond the cap is a genuine failure and
    raises ``BlockNotPsd``.  A block with no negative eigenvalue is
    returned as it is.
    """
    vals, vecs = np.linalg.eigh(0.5 * (block + block.T))
    if vals.size == 0:
        return block, 100.0 * eps
    cap = 100.0 * eps * (1.0 + float(vals[-1]))
    if vals[0] < -cap:
        raise BlockNotPsd(
            f"{label} has eigenvalue {vals[0]:.3e}, beyond the PSD cap "
            f"{-cap:.3e}"
        )
    if vals[0] >= 0.0:
        return block, cap
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T, cap


def _psd_eig(block: np.ndarray, cap: float, label: str):
    """Eigendecomposition of a matrix derived from a bag block, with its
    eigenvalues checked against the bag's PSD cap and clamped at zero."""
    vals, vecs = np.linalg.eigh(block)
    if vals.size and vals[0] < -cap:
        raise BlockNotPsd(
            f"{label} has eigenvalue {vals[0]:.3e}, beyond the PSD cap "
            f"{-cap:.3e}"
        )
    return np.clip(vals, 0.0, None), vecs


def _check_overlaps(blocks, td: TreeDecomposition) -> None:
    for j, bag in enumerate(td.bags):
        p = int(td.parent[j])
        if p == j:
            continue
        sep = td.separator(j)
        if not sep:
            continue
        own = [bag.index(v) for v in sep]
        par = [td.bags[p].index(v) for v in sep]
        diff = np.max(
            np.abs(
                blocks[j][np.ix_(own, own)] - blocks[p][np.ix_(par, par)]
            )
        )
        if diff > OVERLAP_TOL:
            raise OverlapMismatch(
                f"bags {j} and {p} disagree on their overlap by {diff:.3e}"
            )


def complete_low_rank(
    blocks, td: TreeDecomposition, eps: float = 1e-8
) -> LowRankFactor:
    """Complete per-bag PSD blocks to a factor U with ``rank <= omega``.

    Each block is first projected onto the PSD cone with the cap
    ``100 * eps * (1 + lambda_max(block))``; its separator block and the
    Schur complement of every extension are held to the same cap, so a
    block accurate to ``eps`` is not rejected for its rounding.

    The traversal is root first.  At each tree edge the new vertices A of
    the child bag are extended from the separator B through the closed form
    rows ``U_A = X[A,B]·X[B,B]^+·U_B + W``, where W carries the Schur
    complement ``X[A,A] − X[A,B]·X[B,B]^+·X[B,A]`` in directions orthogonal
    to the rows of ``U_B``.  Orthogonality to the separator rows alone is
    what keeps every prescribed block exact, and it allows columns used by
    long-retired vertices to be reused, which caps the column count at the
    largest bag size.  Cost is one eigendecomposition of at most
    omega x omega per bag.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if len(blocks) != td.ell:
        raise DimensionMismatch(
            f"{len(blocks)} blocks for {td.ell} bags"
        )
    caps = []
    for j, bag in enumerate(td.bags):
        if blocks[j].shape != (len(bag), len(bag)):
            raise DimensionMismatch(
                f"block {j} has shape {blocks[j].shape}, bag size {len(bag)}"
            )
        blocks[j], cap = _project_psd(blocks[j], eps, f"bag {j} block")
        caps.append(cap)
    _check_overlaps(blocks, td)

    u = np.zeros((td.n, td.omega))
    cols = 0  # columns of u in use so far
    order = list(reversed(td.postorder()))  # parents before children

    for j in order:
        bag = np.asarray(td.bags[j], dtype=np.int64)
        block = blocks[j]
        is_root = int(td.parent[j]) == j
        sep = [] if is_root else list(td.separator(j))
        sep_local = [td.bags[j].index(v) for v in sep]
        new_local = [i for i in range(len(bag)) if i not in sep_local]
        new_global = bag[new_local]
        if len(new_local) == 0:
            continue

        # anchor rows for the separator (already placed by the parent;
        # empty at the root or across a disconnected attachment, in which
        # case every in-use column is available for reuse)
        u_b = u[np.asarray(sep, dtype=np.int64), :cols]
        x_bb = block[np.ix_(sep_local, sep_local)]
        x_ab = block[np.ix_(new_local, sep_local)]
        x_aa = block[np.ix_(new_local, new_local)]

        # pseudo-inverse of X[B,B] through its eigendecomposition
        vals, vecs = _psd_eig(x_bb, caps[j], f"separator of bag {j}")
        lam_max = float(vals[-1]) if vals.size else 0.0
        keep = vals > PINV_CUTOFF * lam_max if vals.size else np.zeros(0, bool)
        inv_vals = np.zeros_like(vals)
        inv_vals[keep] = 1.0 / vals[keep]
        pinv_bb = (vecs * inv_vals) @ vecs.T

        u_a0 = x_ab @ (pinv_bb @ u_b)

        # residual energy of the new vertices (Schur complement)
        schur = x_aa - x_ab @ pinv_bb @ x_ab.T
        schur = 0.5 * (schur + schur.T)
        s_vals, s_vecs = _psd_eig(schur, caps[j], f"extension of bag {j}")
        s_max = float(s_vals[-1]) if s_vals.size else 0.0
        s_keep = s_vals > PINV_CUTOFF * max(s_max, eps)
        w_dirs = s_vecs[:, s_keep] * np.sqrt(s_vals[s_keep])
        r_new = w_dirs.shape[1]

        if r_new:
            # orthonormal basis of the complement of U_B's row space
            if u_b.size:
                _, sv, vt = np.linalg.svd(u_b, full_matrices=True)
                r_b = int(np.sum(sv > PINV_CUTOFF * max(sv[0], 1.0)))
                comp = vt[r_b:].T  # cols x (cols - r_b)
            else:
                comp = np.eye(cols)
            if comp.shape[1] < r_new:
                extra = r_new - comp.shape[1]
                if cols + extra > u.shape[1]:
                    u = np.hstack(
                        [u, np.zeros((td.n, cols + extra - u.shape[1]))]
                    )
                wide = np.zeros((cols + extra, comp.shape[1] + extra))
                wide[:cols, : comp.shape[1]] = comp
                wide[cols:, comp.shape[1] :] = np.eye(extra)
                comp = wide
                cols += extra
                u_a0 = np.hstack(
                    [u_a0, np.zeros((u_a0.shape[0], extra))]
                )
            u[new_global, :cols] = u_a0 + w_dirs @ comp[:, :r_new].T
        else:
            u[new_global, :cols] = u_a0

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
