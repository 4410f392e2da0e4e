"""Symmetric-matrix kernels: scaled triangular vectorization (svec/smat),
symmetric Kronecker action, and a guarded dense factorization.

Conventions
-----------
* ``svec`` packs the lower triangle of a symmetric matrix row by row
  (positions (0,0), (1,0), (1,1), (2,0), ...), scaling off-diagonal entries
  by sqrt(2) so that ``svec(A) . svec(B) == trace(A @ B)``.
* Indices are 0-based everywhere inside the package; file formats and error
  messages convert to 1-based at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonTriangularLength, NotFinite

SQRT2 = float(np.sqrt(2.0))


def tri(order: int) -> int:
    """Length of the packed lower triangle of a symmetric matrix."""
    return order * (order + 1) // 2


@lru_cache(maxsize=None)
def order_of_tri(length: int) -> int:
    """Inverse of :func:`tri`; raises NonTriangularLength if not triangular."""
    order = int((np.sqrt(8 * length + 1) - 1) / 2 + 0.5)
    if tri(order) != length:
        raise NonTriangularLength(
            f"length {length} is not a triangular number o*(o+1)/2"
        )
    return order


@lru_cache(maxsize=None)
def tri_indices(order: int):
    """(rows, cols) index arrays of the packed lower triangle, row-major."""
    rows, cols = np.tril_indices(order)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=None)
def svec_scale(order: int) -> np.ndarray:
    """Per-position scale vector: 1 on the diagonal, sqrt(2) off it."""
    rows, cols = tri_indices(order)
    scale = np.where(rows == cols, 1.0, SQRT2)
    scale.setflags(write=False)
    return scale


def svec(mat: np.ndarray) -> np.ndarray:
    """Scaled packed lower triangle of a symmetric matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"svec expects a square matrix, got {mat.shape}")
    order = mat.shape[0]
    rows, cols = tri_indices(order)
    return mat[rows, cols] * svec_scale(order)


def smat(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`: rebuild the full symmetric matrix."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise DimensionMismatch(f"smat expects a vector, got shape {vec.shape}")
    order = order_of_tri(vec.shape[0])
    rows, cols = tri_indices(order)
    vals = vec / svec_scale(order)
    out = np.zeros((order, order))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


def svec_stack(mats: np.ndarray) -> np.ndarray:
    """Vectorized :func:`svec` over a stack of symmetric matrices (g, o, o)."""
    mats = np.asarray(mats, dtype=float)
    order = mats.shape[-1]
    rows, cols = tri_indices(order)
    return mats[..., rows, cols] * svec_scale(order)


def smat_stack(vecs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`smat` over a stack of packed vectors (g, t)."""
    vecs = np.asarray(vecs, dtype=float)
    order = order_of_tri(vecs.shape[-1])
    rows, cols = tri_indices(order)
    vals = vecs / svec_scale(order)
    out = np.zeros(vecs.shape[:-1] + (order, order))
    out[..., rows, cols] = vals
    out[..., cols, rows] = vals
    return out


def sym_kron_stack(w: np.ndarray) -> np.ndarray:
    """Vectorized ``W (x)_s W`` over a stack of symmetric matrices (g, o, o).

    Returns (g, t, t) with t = tri(o).  Used to assemble the scaled diagonal
    blocks of the normal matrix for many same-order blocks at once.
    """
    w = np.asarray(w, dtype=float)
    order = w.shape[-1]
    r, c = tri_indices(order)
    s = svec_scale(order)
    term = (
        w[:, r[:, None], r[None, :]] * w[:, c[:, None], c[None, :]]
        + w[:, r[:, None], c[None, :]] * w[:, c[:, None], r[None, :]]
    )
    return 0.5 * (s[:, None] * s[None, :]) * term


def svec_coords(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """(positions, values) of lower-triangle entries in ``svec``: packed
    position r(r+1)/2 + c, off-diagonals scaled by sqrt 2."""
    pos = rows * (rows + 1) // 2 + cols
    return pos, vals * np.where(rows == cols, 1.0, SQRT2)


class Triplets(NamedTuple):
    """Stored entries of a stack of sparse symmetric matrices: entry e is
    (rows[e], cols[e]) = vals[e] of matrix ids[e].  In the canonical form
    that ``SdpProblem`` stores, every entry is in the lower triangle
    (rows >= cols), the entries are sorted by (id, row, column), and no
    position repeats."""

    ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def sorted_lookup(table: np.ndarray, keys: np.ndarray):
    """Positions of ``keys`` in the ascending ``table``, and which it holds."""
    pos = np.searchsorted(table, keys)
    hit = pos < table.size
    hit[hit] = table[pos[hit]] == keys[hit]
    return pos, hit


# --------------------------------------------------------------------------
# Guarded dense factorization
# --------------------------------------------------------------------------

PIVOT_REL_TOL = 1e-12


@dataclass
class CholeskyOrEig:
    """Factorization of a dense symmetric matrix: Cholesky when safely
    positive definite, eigendecomposition otherwise."""

    kind: str  # "chol" | "eig"
    order: int
    chol_l: np.ndarray | None = None
    eig_vals: np.ndarray | None = None
    eig_vecs: np.ndarray | None = None
    _solve_floor: float = field(default=0.0, repr=False)

    def reconstruct(self) -> np.ndarray:
        if self.kind == "chol":
            return self.chol_l @ self.chol_l.T
        return (self.eig_vecs * self.eig_vals) @ self.eig_vecs.T

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if self.kind == "chol":
            import scipy.linalg as sla

            y = sla.solve_triangular(self.chol_l, rhs, lower=True)
            return sla.solve_triangular(self.chol_l.T, y, lower=False)
        coeff = self.eig_vecs.T @ rhs
        vals = self.eig_vals
        safe = np.where(np.abs(vals) > self._solve_floor, vals, np.inf)
        if coeff.ndim == 1:
            coeff = coeff / safe
        else:
            coeff = coeff / safe[:, None]
        return self.eig_vecs @ coeff


def dense_factor(mat: np.ndarray) -> CholeskyOrEig:
    """Factor a dense symmetric matrix, falling back from Cholesky to an
    eigendecomposition when any pivot drops below
    ``PIVOT_REL_TOL * max(1, max diagonal)``."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NotFinite("matrix contains non-finite entries")
    order = mat.shape[0]
    sym = 0.5 * (mat + mat.T)
    max_diag = float(np.max(np.diag(sym))) if order else 1.0
    pivot_floor = PIVOT_REL_TOL * max(1.0, max_diag)
    try:
        chol_l = np.linalg.cholesky(sym)
        if float(np.min(np.diag(chol_l)) ** 2) >= pivot_floor:
            return CholeskyOrEig(kind="chol", order=order, chol_l=chol_l)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(sym)
    floor = PIVOT_REL_TOL * max(1.0, float(np.max(np.abs(vals))) if order else 1.0)
    return CholeskyOrEig(
        kind="eig", order=order, eig_vals=vals, eig_vecs=vecs, _solve_floor=floor
    )
