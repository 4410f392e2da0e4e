"""Symmetric-matrix kernels: scaled triangular vectorization (svec/smat),
symmetric Kronecker action, congruence, numpy's stacked LAPACK kernels,
and a guarded dense factorization.

Conventions
-----------
* ``svec`` packs the lower triangle of a symmetric matrix row by row
  (positions (0,0), (1,0), (1,1), (2,0), ...), scaling off-diagonal entries
  by sqrt(2) so that ``svec(A) . svec(B) == trace(A @ B)``.
* Indices are 0-based everywhere inside the package; file formats and error
  messages convert to 1-based at the boundary.
* Private numpy API is imported here and nowhere else in the package:
  ``bmm_einsum``, the pairwise step of ``np.einsum``, and the LAPACK
  gufuncs that ``np.linalg.cholesky``, ``eigh`` and ``eigvalsh`` call
  after their argument checks.  ``tests/test_linalg.py`` checks each
  against its public counterpart bit for bit.

Order-2 eigenproblems in closed form
------------------------------------
A gufunc call costs about 0.45 us per 2 x 2 ``eigh`` and 0.25 us per
``eigvalsh``: on the chains' width-2 bags, a quarter of the cone layer's
time.  :func:`eigh_lo` and :func:`eigvalsh_lo` instead run, vectorized
over an order-2 stack, the very path LAPACK takes on each matrix
[[a, b], [b, c]] (its lower triangle): ``dsyevd`` reduces it to the
tridiagonal (a, c; b) unchanged (``dsytd2`` with tau = 0), then

* ``eigvalsh`` (``dsterf``): a lane splits where |b| <= sqrt|a| sqrt|c|
  eps or b^2 <= eps^2 |a c|, keeping (a, c); others take
  ``dlae2(a, sqrt(b*b), c)``.  The pair is sorted ascending.
* ``eigh`` (``dstedc`` -> ``dsteqr``): the same first test, or
  |b|^2 <= eps^2 |d_l| |d_l+1| + safmin in its QL or QR order; a split
  lane keeps Z = I, others rotate I by ``dlaev2(a, b, c)``'s (cs1, sn1).
  The selection sort then swaps the columns where rt2 < rt1.

with eps = 2^-53 and safmin = 2^-1022.  Each operation is the one LAPACK
makes, in its order, so every float is the gufunc's.  That holds only
where no routine rescales the matrix: its largest |entry| must lie in
[2^-405, 2^485] (about 1.2e-122 to 1e146).  A stack with any matrix
outside it, or with a non-finite entry, goes to the gufunc whole, as
does any stack under ``CLOSED_FORM_MIN_STACK`` matrices, where the
gufunc is faster.  In the range the formulas raise no invalid flag.

Exactness is the point.  A closed form that is merely accurate moves the
chaotic trajectory of ``test_dense_program_matches_tree_program``: a
half-trace +- radius form took its tree solve from 14 to 21 iterations.
It would also break the exact repeat of ``y``, the iteration count and L
that the bench and the differential tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy._core.einsumfunc import bmm_einsum
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, NonTriangularLength, NotFinite

SQRT2 = float(np.sqrt(2.0))

# the LAPACK gufunc of np.linalg.cholesky (lower triangle); call it under
# lapack_errstate(), as eigh_lo and eigvalsh_lo below
cholesky_lo = _umath_linalg.cholesky_lo


def tri(order: int) -> int:
    """Length of the packed lower triangle of a symmetric matrix."""
    return order * (order + 1) // 2


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integer ranges [starts[i], starts[i] + lengths[i]), concatenated
    in order."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(np.sum(lengths))


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


@lru_cache(maxsize=None)
def _smat_plan(order: int):
    """Cached gather plan of :func:`smat_stack`: the packed position of
    every entry of the full order x order matrix, and its scale."""
    rows, cols = tri_indices(order)
    pos = np.empty((order, order), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(tri(order))
    scale = svec_scale(order)[pos]
    pos.setflags(write=False)
    scale.setflags(write=False)
    return pos, scale


def smat(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`: rebuild the full symmetric matrix."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise DimensionMismatch(f"smat expects a vector, got shape {vec.shape}")
    return smat_stack(vec)


@lru_cache(maxsize=None)
def _svec_plan(order: int) -> np.ndarray:
    """Cached gather plan of :func:`svec_stack`: the flat position
    r * order + c of every packed position (r, c)."""
    rows, cols = tri_indices(order)
    flat = rows * order + cols
    flat.setflags(write=False)
    return flat


def svec_stack(mats: np.ndarray) -> np.ndarray:
    """Vectorized :func:`svec` over a stack of symmetric matrices (..., o, o):
    one gather of the packed entries and one product with their scale."""
    mats = np.asarray(mats, dtype=float)
    order = mats.shape[-1]
    flat = mats.reshape(mats.shape[:-2] + (order * order,))
    return flat[..., _svec_plan(order)] * svec_scale(order)


def smat_stack(vecs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`smat` over a stack of packed vectors (..., t): one
    gather of every full-matrix entry and one division by its scale."""
    vecs = np.asarray(vecs, dtype=float)
    order = order_of_tri(vecs.shape[-1])
    pos, scale = _smat_plan(order)
    out = vecs[..., pos]
    out /= scale
    return out


# 0.5 s_p s_q of a pair of packed positions, by how many are off-diagonal
_KRON_COEF = 0.5 * np.array([1.0 * 1.0, 1.0 * SQRT2, SQRT2 * SQRT2])


@lru_cache(maxsize=None)
def _sym_kron_plan(order: int):
    """Cached plan of :func:`sym_kron_stack` over the pairs p >= q of packed
    positions: the four flat W positions of each pair, its count of
    off-diagonal positions (its ``_KRON_COEF`` index), and the pair at each
    entry of the t x t block, each in the smallest unsigned dtype that fits."""
    r, c = tri_indices(order)
    p, q = np.tril_indices(tri(order))
    flat = np.stack([r[p] * order + r[q], c[p] * order + c[q],
                     r[p] * order + c[q], c[p] * order + r[q]])
    pair = np.empty((tri(order),) * 2, np.min_scalar_type(max(p.size - 1, 0)))
    pair[p, q] = pair[q, p] = np.arange(p.size)
    plan = (flat.astype(np.min_scalar_type(max(order * order - 1, 0))),
            (r[p] != c[p]).astype(np.uint8) + (r[q] != c[q]),
            pair.ravel())
    for arr in plan:
        arr.setflags(write=False)
    return plan


def sym_kron_stack(w: np.ndarray) -> np.ndarray:
    """Vectorized ``W (x)_s W`` over a stack of symmetric matrices (g, o, o).

    Returns (g, t, t) with t = tri(o).  Used to assemble the scaled diagonal
    blocks of the normal matrix for many same-order blocks at once.

    Entry (p, q) is 0.5 s_p s_q (W[r_p,r_q] W[c_p,c_q] + W[r_p,c_q] W[c_p,r_q]).
    Only the pairs p >= q are computed, from flat gathers of W, and mirrored:
    for an exactly symmetric W (as ``ConeOps.scaling_point`` makes it) entry
    (q, p) is the same float, since IEEE products and sums commute, so the
    result is bit for bit that of the full t x t formula.

    The gathers are ``np.take`` calls on the cached uint8/uint16 plans,
    along axis 0 of one transposed copy of the flat W stack, so each index
    moves a whole row of g entries.  The result is a transposed view of the
    (t * t, g) gather, with the same floats as a C-ordered stack.
    ``np.take`` makes a full intp copy of each plan, so the products are
    taken in place: with at most three (pairs, g) arrays alive at once, a
    solve's peak memory stays that of the fancy-indexing gathers.
    """
    w = np.asarray(w, dtype=float)
    g, order = w.shape[0], w.shape[-1]
    t = tri(order)
    (rr, cc, rc, cr), n_off, pair = _sym_kron_plan(order)
    flat = np.ascontiguousarray(w.reshape(g, order * order).T)
    lower = np.take(flat, rr, axis=0)
    lower *= np.take(flat, cc, axis=0)
    cross = np.take(flat, rc, axis=0)
    cross *= np.take(flat, cr, axis=0)
    lower += cross
    del cross
    lower *= np.take(_KRON_COEF, n_off)[:, None]
    return np.take(lower, pair, axis=0).T.reshape(g, t, t)


_CONGRUENCE = "gij,gkjl,glm->gkim"  # W M W for each group g and column k


@lru_cache(maxsize=None)  # a solve needs 2 per order; keep all
def _congruence_steps(w_shape: tuple, m_shape: tuple) -> tuple:
    """(operand positions, einsum string) of each pairwise step of the
    contraction ``optimize="greedy"`` picks, found once per pair of
    operand shapes."""
    w, m = np.broadcast_to(0.0, w_shape), np.broadcast_to(0.0, m_shape)
    steps = np.einsum_path(_CONGRUENCE, w, m, w, optimize="greedy",
                           einsum_call=True)[1]
    return tuple((step[0], step[1]) for step in steps)


def congruence_stack(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """W M W for each group g of ``w`` (g, o, o) and column k of ``m``
    (g, k, o, o): the steps of ``np.einsum(_CONGRUENCE, w, m, w,
    optimize="greedy")`` run as that call runs them, so every float is the
    same, without the path search numpy repeats inside each call."""
    ops = [w, m, w]
    for inds, eq in _congruence_steps(w.shape, m.shape):
        a, b = (ops.pop(i) for i in inds)
        ops.append(bmm_einsum(eq, a, b))
    return ops[0]


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


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for integer keys: the keys sorted, each kept
    where it differs from its left neighbour.  numpy 2.4's ``np.unique``
    took 20-75 times as long as this sort on 10 k - 1 M int64 keys."""
    keys = np.sort(keys, axis=None)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new]


def sorted_lookup(table: np.ndarray, keys: np.ndarray):
    """Positions of ``keys`` in the ascending ``table``, and which it holds."""
    pos = np.searchsorted(table, keys)
    hit = pos < table.size
    hit[hit] = table[pos[hit]] == keys[hit]
    return pos, hit


# --------------------------------------------------------------------------
# numpy's stacked LAPACK kernels, without their Python wrappers
# --------------------------------------------------------------------------


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError(
        "LAPACK failed: a matrix is not positive definite, has a "
        "non-finite entry, or its eigenvalues did not converge"
    )


def lapack_errstate() -> np.errstate:
    """The error state ``np.linalg`` calls its gufuncs under: a failed
    call sets the invalid flag, which raises ``np.linalg.LinAlgError``;
    overflow, division and underflow are ignored.

    Enter one per call site, around the loop of :func:`cholesky_lo`,
    :func:`eigh_lo` or :func:`eigvalsh_lo` calls: each takes a float64
    stack and reads its lower triangle, as ``np.linalg.cholesky``,
    ``eigh`` and ``eigvalsh`` call it, so every float is theirs.  Entering
    the state costs about half of what a wrapper adds per call (4 against
    9 us for a 2 x 2 ``eigh`` on a 2-core host), so one per loop.  The
    other ufuncs in the block run under it too: an invalid operation
    raises the same error, and overflow or division warns no more.  On
    finite data the callers' other operations raise neither.
    """
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


# LAPACK's dlamch('E'), its square and dlamch('S')
_EPS = 2.0 ** -53
_EPS2 = _EPS * _EPS
_SAFMIN = 2.0 ** -1022
# the largest |entry| of an order-2 matrix that no routine on its path
# rescales: dsteqr and dsterf scale below ssfmin = sqrt(safmin) / eps^2,
# dsyevd above rmax = sqrt(bignum) = 2^485
_UNSCALED = (2.0 ** -405, 2.0 ** 485)
# an order-2 stack of fewer matrices goes to the gufuncs, which are faster
# there: the closed forms cost about 35-60 us per call at any small size.
# On a 2-core x86 host at one BLAS thread, an iteration's 3 eigh and 4
# eigvalsh calls broke even near 130 matrices: about 330 against 150 us
# at 54, 380 against 630 us at 250.  Of the bench's order-2 stacks,
# rgraph-maxcut's 54 stay on the gufuncs, and star-arrow's 250 and the
# chains' 499 and 599 take the closed forms.
CLOSED_FORM_MIN_STACK = 128


def _order2_lower(mats: np.ndarray):
    """(a, b, c, |a|, |b|, |c|) of the lower triangles [[a], [b, c]] of a
    float64 order-2 stack that the closed forms may take, else None: a
    short stack, or one with a largest |entry| outside ``_UNSCALED`` or
    not finite (NaN fails both comparisons)."""
    if (mats.dtype != np.float64 or mats.shape[-2:] != (2, 2)
            or mats.size < 4 * CLOSED_FORM_MIN_STACK):
        return None
    a, b, c = mats[..., 0, 0], mats[..., 1, 0], mats[..., 1, 1]
    abs_a, abs_b, abs_c = np.abs(a), np.abs(b), np.abs(c)
    big = np.maximum(np.maximum(abs_a, abs_b), abs_c)
    if not (big.min() >= _UNSCALED[0] and big.max() <= _UNSCALED[1]):
        return None
    return a, b, c, abs_a, abs_b, abs_c


def _dlae2(a, b, c, a_wider):
    """LAPACK dlae2 (dlaev2's eigenvalue part) on each lane, step for
    step: the eigenvalue rt1 of larger modulus, rt2, and the
    intermediates dlaev2 goes on with.  ``b`` must have no zero lane."""
    sm = a + c
    df = a - c
    adf = np.abs(df)
    tb = b + b
    ab = np.abs(tb)
    acmx = np.where(a_wider, a, c)
    acmn = np.where(a_wider, c, a)
    # ADF*SQRT(1+(AB/ADF)**2), AB*SQRT(1+(ADF/AB)**2) or AB*SQRT(2)
    hi = np.maximum(adf, ab)
    lo = np.minimum(adf, ab) / hi
    rt = hi * np.sqrt(1.0 + lo * lo)
    neg = sm < 0.0
    minus_rt = -rt
    rt1 = 0.5 * (sm + np.where(neg, minus_rt, rt))
    rt2 = np.where(sm == 0.0, -rt1,
                   (acmx / rt1) * acmn - (b / rt1) * b)
    return rt1, rt2, df, tb, ab, rt, minus_rt, neg


def _negligible(abs_a, abs_b, abs_c):
    """The lanes where dsterf's and dsteqr's first test splits b off:
    |b| <= sqrt|a| sqrt|c| eps."""
    return abs_b <= (np.sqrt(abs_a) * np.sqrt(abs_c)) * _EPS


def eigvalsh_lo(mats: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of a float64 stack, bit for bit, without its
    wrapper.  Order-2 stacks of at least ``CLOSED_FORM_MIN_STACK``
    matrices take dsyevd's own path in closed form (dsterf's two split
    tests, then dlae2(a, sqrt(b*b), c)); every other stack, and any stack
    that path would rescale, goes to numpy's gufunc.  Call it under
    :func:`lapack_errstate`."""
    mats = np.asarray(mats)
    lower = _order2_lower(mats)
    if lower is None:
        return _umath_linalg.eigvalsh_lo(mats)
    a, b, c, abs_a, abs_b, abs_c = lower
    bb = b * b
    split = _negligible(abs_a, abs_b, abs_c) | (bb <= _EPS2 * np.abs(a * c))
    cut = split.any()
    if cut:  # any lane with b != 0 keeps 0/0 out of the split lanes
        bb = np.where(split, 1.0, bb)
    rt1, rt2 = _dlae2(a, np.sqrt(bb), c, abs_a > abs_c)[:2]
    if cut:
        rt1, rt2 = np.where(split, a, rt1), np.where(split, c, rt2)
    # rt1 and rt2 are never two zeros of opposite signs (a split lane
    # has a or c nonzero, others |rt1| >= |b|), so min and max sort them
    # as dlasrt does
    vals = np.empty(mats.shape[:-1])
    np.minimum(rt1, rt2, out=vals[..., 0])
    np.maximum(rt1, rt2, out=vals[..., 1])
    return vals


def eigh_lo(mats: np.ndarray):
    """``np.linalg.eigh`` of a float64 stack, bit for bit, without its
    wrapper.  Order-2 stacks of at least ``CLOSED_FORM_MIN_STACK``
    matrices take dsyevd's own path in closed form (dsteqr's two split
    tests, dlaev2 and its one plane rotation of the identity, then the
    selection sort); every other stack, and any stack that path would
    rescale, goes to numpy's gufunc.  Call it under
    :func:`lapack_errstate`."""
    mats = np.asarray(mats)
    lower = _order2_lower(mats)
    if lower is None:
        return _umath_linalg.eigh_lo(mats)
    a, b, c, abs_a, abs_b, abs_c = lower
    a_wider = abs_a > abs_c
    # dsteqr's QL (QR when |c| < |a|) test: |b|^2 <= eps^2 |d_l| |d_l+1|
    # + safmin, its products taken in that order
    split = _negligible(abs_a, abs_b, abs_c) | (
        b * b <= np.where(a_wider, (_EPS2 * abs_c) * abs_a,
                          (_EPS2 * abs_a) * abs_c) + _SAFMIN
    )
    cut = split.any()
    if cut:  # any lane with b != 0 keeps 0/0 out of the split lanes
        b = np.where(split, 1.0, b)
    rt1, rt2, df, tb, ab, rt, minus_rt, neg = _dlae2(a, b, c, a_wider)
    # dlaev2's eigenvector (cs1, sn1) for rt1
    df_nonneg = df >= 0.0
    cs = df + np.where(df_nonneg, rt, minus_rt)
    tall = np.abs(cs) > ab
    ratio = np.where(tall, tb / cs, cs / tb)  # -CT or -TN
    root = 1.0 / np.sqrt(1.0 + ratio * ratio)
    prod = -(ratio * root)  # CT*SN1 or TN*CS1
    cs1, sn1 = np.where(tall, prod, root), np.where(tall, root, prod)
    turn = neg != df_nonneg  # SGN1 == SGN2: (cs1, sn1) <- (-sn1, cs1)
    cs1, sn1 = np.where(turn, -sn1, cs1), np.where(turn, cs1, sn1)
    if cut:  # a split lane keeps Z = I
        cs1, sn1 = np.where(split, 1.0, cs1), np.where(split, 0.0, sn1)
        rt1, rt2 = np.where(split, a, rt1), np.where(split, c, rt2)
    # dlasr's rotation of I gives [[cs1, 0 - sn1], [sn1, cs1]], and the
    # sort swaps its columns where rt2 < rt1 (see eigvalsh_lo on min/max)
    vals = np.empty(mats.shape[:-1])
    np.minimum(rt1, rt2, out=vals[..., 0])
    np.maximum(rt1, rt2, out=vals[..., 1])
    z = np.empty(mats.shape)
    z[..., 0, 0] = z[..., 1, 1] = cs1
    z[..., 1, 0] = sn1
    np.subtract(0.0, sn1, out=z[..., 0, 1])
    swap = (rt2 < rt1)[..., None, None]
    return vals, np.where(swap, z[..., ::-1], z)


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
