"""Benchmark instances and the checks that judge their answers.

Every instance is produced as SDPA sparse text, the input `treesdp solve`
reads.  The graph or data of each family is fixed; ``--seed`` only permutes
the order of the entry lines and the orientation (i, j) or (j, i) of each
matrix entry.  The reader canonicalises both, so every seed yields the same
problem bit for bit and the iteration count and accuracy repeat exactly,
while the parser still sees a different file each time.

The checks use only the instance data kept here and the solution factor
read back from the written ``.sol`` file; none of them calls the solver's
own metrics or objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

EPS = 1e-8
# An interior-point answer with complementarity mu <= EPS is accurate to
# O(sqrt(mu)) in X when the optimal face is degenerate (every instance here
# has a low-rank optimum), and its objective to O(nu * mu) <= sqrt(EPS) for
# barrier parameters nu below 1/sqrt(EPS).  One relative tolerance covers
# both.
TOL = float(np.sqrt(EPS))

# Fixed generator seed of the random sparse graph (not the run's --seed).
RGRAPH_GRAPH_SEED = 1
RGRAPH_EXTRA_EDGE_RATE = 0.8


class CheckFailed(Exception):
    """An answer disagreed with the independent computation."""


@dataclass
class Instance:
    """One solve: its SDPA text, the method, and the data its check needs."""

    family: str
    method: str
    n: int
    text: str
    check: object  # callable(u, y, omega) -> None, raises CheckFailed


# ---------------------------------------------------------------------------
# SDPA text with a seeded layout
# ---------------------------------------------------------------------------


def _sdpa_text(rng, n, b, psd, lp=()):
    """SDPA sparse text for one PSD block of order n and, when ``lp`` is
    given, one diagonal block.  ``psd`` holds (matno, i, j, value) with
    0-based i, j; ``lp`` holds (matno, slot, value).  The seed shuffles the
    entry lines and flips the orientation of each PSD entry."""
    n_lp = len(lp)
    head = [
        '" treesdp benchmark instance',
        str(len(b)),
        "2" if n_lp else "1",
        f"{n} -{n_lp}" if n_lp else str(n),
        " ".join(f"{v:.17g}" for v in b),
    ]
    flip = rng.random(len(psd)) < 0.5
    body = [
        f"{k} 1 {(j if f else i) + 1} {(i if f else j) + 1} {v:.17g}"
        for (k, i, j, v), f in zip(psd, flip)
    ]
    body += [f"{k} 2 {s + 1} {s + 1} {v:.17g}" for k, s, v in lp]
    order = rng.permutation(len(body))
    return "\n".join(head + [body[t] for t in order]) + "\n"


def _laplacian_entries(n, edges, scale):
    """Cost entries of ``scale`` times the graph Laplacian."""
    deg = np.zeros(n)
    out = []
    for u, v in edges:
        deg[u] += 1.0
        deg[v] += 1.0
        out.append((0, u, v, -scale))
    out += [(0, i, i, scale * deg[i]) for i in range(n)]
    return out


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def random_sparse_graph(n, seed=RGRAPH_GRAPH_SEED, rate=RGRAPH_EXTRA_EDGE_RATE):
    """A random tree (each vertex hangs off an earlier one) plus each other
    pair with probability rate/n; connected and sparse."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < rate / n:
                edges.append((i, j))
    return edges


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def maxcut(n, edges, rng, family, check):
    """MAXCUT relaxation: min -(1/4) L.X subject to diag(X) = 1."""
    psd = _laplacian_entries(n, edges, -0.25)
    psd += [(i + 1, i, i, 1.0) for i in range(n)]
    text = _sdpa_text(rng, n, np.ones(n), psd)
    return Instance(family, "dctc", n, text, check)


def path_maxcut(n, rng):
    edges = path_edges(n)
    return maxcut(
        n, edges, rng, "path-maxcut",
        lambda u, y, omega: check_path_cut(u, omega, edges, k=2),
    )


def rgraph_maxcut(n, rng):
    edges = random_sparse_graph(n)
    return maxcut(
        n, edges, rng, "rgraph-maxcut",
        lambda u, y, omega: check_maxcut_sandwich(u, y, omega, n, edges),
    )


def path_max3cut_aux(n, rng):
    """MAX 3-CUT relaxation: min -(1/3) L.X with diag(X) = 1 and one
    inequality X[i,j] >= -1/2 per edge, written as a single stored entry
    (2 X[i,j] >= -1) with a -1 coefficient in the diagonal block."""
    edges = path_edges(n)
    psd = _laplacian_entries(n, edges, -1.0 / 3.0)
    psd += [(i + 1, i, i, 1.0) for i in range(n)]
    psd += [(n + 1 + e, u, v, 1.0) for e, (u, v) in enumerate(edges)]
    lp = [(n + 1 + e, e, -1.0) for e in range(len(edges))]
    b = np.concatenate([np.ones(n), -np.ones(len(edges))])
    text = _sdpa_text(rng, n, b, psd, lp)
    return Instance(
        "path-max3cut-aux", "dctc-aux", n, text,
        lambda u, y, omega: check_path_cut(u, omega, edges, k=3),
    )


def star_arrow(ell, rng):
    """min tr X subject to <E_{i,hub}, X> = b_i for the ell leaves; each
    constraint is one stored off-diagonal entry, so it reads
    2 X[i, hub] = b_i."""
    n = ell + 1
    b = 0.5 / np.arange(1.0, ell + 1.0)
    psd = [(0, i, i, 1.0) for i in range(n)]
    psd += [(i + 1, ell, i, 1.0) for i in range(ell)]
    text = _sdpa_text(rng, n, b, psd)
    return Instance(
        "star-arrow", "dctc", n, text,
        lambda u, y, omega: check_star(u, omega, b),
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def read_factor(path):
    """The factor U of a ``.sol`` file: ``n r``, then n rows of r values."""
    with open(path, encoding="utf-8") as fh:
        n, r = (int(t) for t in fh.readline().split())
        u = np.loadtxt(fh, ndmin=2)
    if u.shape != (n, r):
        raise CheckFailed(f"solution file holds {u.shape}, header says ({n}, {r})")
    return u


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_rank(u, omega):
    _require(
        u.shape[1] <= omega,
        f"factor has {u.shape[1]} columns, above the bag size {omega}",
    )


def _check_unit_diagonal(u):
    err = float(np.max(np.abs(np.einsum("ij,ij->i", u, u) - 1.0)))
    _require(err <= TOL * 2.0, f"diag(X) misses 1 by {err:.3e}")  # 1 + |b_i|


def check_path_cut(u, omega, edges, k):
    """MAX k-CUT (k = 2, 3) on a path: every edge can be cut, so the
    relaxation's optimum is -(n-1), reached by X[i,j] = -1/(k-1) on edges."""
    n = u.shape[0]
    _check_rank(u, omega)
    _check_unit_diagonal(u)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    xe = np.einsum("ij,ij->i", u[e[:, 0]], u[e[:, 1]])
    if k >= 3:
        worst = float(np.min(xe + 1.0 / (k - 1)))
        _require(worst >= -TOL * 2.0, f"X[i,j] >= -1/(k-1) violated by {-worst:.3e}")
    diag = np.einsum("ij,ij->i", u, u)
    cost = -(k - 1) / (2.0 * k) * float(np.sum(diag[e[:, 0]] + diag[e[:, 1]] - 2.0 * xe))
    opt = -(n - 1.0)
    _require(
        abs(cost - opt) <= TOL * (1.0 + abs(opt)),
        f"C.X = {cost:.10g}, the optimum is {opt:.10g}",
    )


def check_star(u, omega, b):
    """The optimum of min tr X with 2 X[i,hub] = b_i is ||b||_2: each 2x2
    minor gives X_ii X_hh >= (b_i/2)^2, so tr X >= ||b||^2/(4 X_hh) + X_hh
    >= ||b||, with equality for a rank-one X."""
    _check_rank(u, omega)
    hub = u.shape[0] - 1
    rows = 2.0 * (u[:hub] @ u[hub])
    err = float(np.max(np.abs(rows - b) / (1.0 + np.abs(b))))
    _require(err <= TOL, f"2 X[i,hub] = b_i violated by {err:.3e}")
    trace = float(np.sum(u * u))
    opt = float(np.linalg.norm(b))
    _require(
        abs(trace - opt) <= TOL * (1.0 + opt),
        f"tr X = {trace:.10g}, the optimum is {opt:.10g}",
    )


def laplacian(n, edges):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = sp.coo_matrix(
        (np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n)
    ).tocsr()
    adj = adj + adj.T
    return sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj


def min_eigenvalue(mat):
    """Smallest eigenvalue of a sparse symmetric matrix."""
    return float(eigsh(mat.tocsc(), k=1, which="SA", tol=1e-12)[0][0])


def check_maxcut_sandwich(u, y, omega, n, edges):
    """Bracket the MAXCUT optimum without knowing it.  Scaling the rows of
    U to unit norm gives an exactly feasible X~, so C.X~ is an upper bound;
    for any y, sum(y) + n * lambda_min(C - Diag y) is a lower bound."""
    _check_rank(u, omega)
    _check_unit_diagonal(u)
    c = -0.25 * laplacian(n, edges)
    un = u / np.linalg.norm(u, axis=1, keepdims=True)
    upper = float(np.sum(un * (c @ un)))
    y = np.asarray(y, dtype=float)
    lower = float(np.sum(y)) + n * min_eigenvalue(c - sp.diags(y))
    width = TOL * (1.0 + abs(upper))
    _require(
        lower <= upper + width,
        f"lower bound {lower:.10g} above upper bound {upper:.10g}",
    )
    _require(
        upper - lower <= width,
        f"bounds {lower:.10g} <= opt <= {upper:.10g} are "
        f"{upper - lower:.3e} apart",
    )


FAMILIES = {
    "path-maxcut": path_maxcut,
    "star-arrow": star_arrow,
    "path-max3cut-aux": path_max3cut_aux,
    "rgraph-maxcut": rgraph_maxcut,
}
