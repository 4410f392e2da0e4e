"""Oracle-backed tests for the symmetric-matrix kernels."""

import numpy as np
import pytest

from treesdp.errors import DimensionMismatch, NonTriangularLength, NotFinite
from treesdp.linalg import (
    CholeskyOrEig,
    dense_factor,
    smat,
    smat_stack,
    svec,
    svec_stack,
    sym_kron_stack,
)
from util import sym_kron_matrix


# ----------------------------------------------------------------- oracles
def naive_svec(mat):
    """Straight-loop reference: row-major lower triangle, sqrt(2) off-diag."""
    order = mat.shape[0]
    out = []
    for i in range(order):
        for j in range(i + 1):
            out.append(mat[i, j] * (1.0 if i == j else np.sqrt(2.0)))
    return np.array(out)


def naive_smat(vec):
    order = int((np.sqrt(8 * len(vec) + 1) - 1) / 2 + 0.5)
    out = np.zeros((order, order))
    k = 0
    for i in range(order):
        for j in range(i + 1):
            v = vec[k] if i == j else vec[k] / np.sqrt(2.0)
            out[i, j] = v
            out[j, i] = v
            k += 1
    return out


def naive_sym_kron_matrix(a, b):
    """Reference symmetric Kronecker matrix built column by column from the
    defining action on basis vectors."""
    order = a.shape[0]
    t = order * (order + 1) // 2
    out = np.zeros((t, t))
    for q in range(t):
        e = np.zeros(t)
        e[q] = 1.0
        mid = naive_smat(e)
        image = 0.5 * (a @ mid @ b.T + b @ mid @ a.T)
        out[:, q] = naive_svec(image)
    return out


def random_sym(rng, order, scale=1.0):
    m = rng.standard_normal((order, order)) * scale
    return 0.5 * (m + m.T)


def random_pd(rng, order):
    m = rng.standard_normal((order, order))
    return m @ m.T + order * np.eye(order)


# ----------------------------------------------------------------- svec/smat
def test_svec_two_by_two_example():
    a, b, c = 3.0, -1.5, 7.0
    mat = np.array([[a, b], [b, c]])
    expect = np.array([a, np.sqrt(2.0) * b, c])
    assert np.allclose(svec(mat), expect, rtol=0, atol=1e-15)


def test_svec_matches_naive_and_round_trips():
    rng = np.random.default_rng(7)
    for order in range(1, 33):
        mat = random_sym(rng, order)
        packed = svec(mat)
        assert np.allclose(packed, naive_svec(mat), atol=1e-14)
        back = smat(packed)
        assert np.max(np.abs(back - mat)) <= 1e-14 * max(1.0, np.abs(mat).max())


def test_svec_inner_product_is_trace_dot():
    rng = np.random.default_rng(11)
    for order in (1, 2, 3, 5, 9, 17):
        a = random_sym(rng, order)
        b = random_sym(rng, order)
        lhs = float(svec(a) @ svec(b))
        rhs = float(np.trace(a @ b))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_smat_rejects_non_triangular_length():
    with pytest.raises(NonTriangularLength):
        smat(np.ones(5))


def test_stacked_variants_match_per_item():
    rng = np.random.default_rng(13)
    mats = np.stack([random_sym(rng, 4) for _ in range(6)])
    packed = svec_stack(mats)
    for g in range(6):
        assert np.allclose(packed[g], svec(mats[g]), atol=1e-14)
    back = smat_stack(packed)
    assert np.allclose(back, mats, atol=1e-14)


# ------------------------------------------------------- symmetric Kronecker
def test_sym_kron_matrix_matches_naive():
    rng = np.random.default_rng(17)
    for order in (1, 2, 3, 5, 8):
        a = random_sym(rng, order)
        b = random_sym(rng, order)
        oracle = naive_sym_kron_matrix(a, b)
        assert np.allclose(sym_kron_matrix(a, b), oracle, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        sym_kron_matrix(np.eye(3), np.eye(2))


def test_sym_kron_stack_matches_matrix():
    rng = np.random.default_rng(23)
    ws = np.stack([random_pd(rng, 3) for _ in range(5)])
    stacked = sym_kron_stack(ws)
    for g in range(5):
        assert np.allclose(stacked[g], naive_sym_kron_matrix(ws[g], ws[g]), atol=1e-12)


def test_sym_kron_of_pd_operand_is_pd():
    rng = np.random.default_rng(29)
    for order in (2, 3, 6):
        w = random_pd(rng, order)
        mat = sym_kron_matrix(w, w)
        assert np.min(np.linalg.eigvalsh(mat)) > 0


# ----------------------------------------------------------------- factorization
def test_dense_factor_pd_uses_cholesky():
    rng = np.random.default_rng(43)
    for order in (1, 4, 16, 64):
        mat = random_pd(rng, order)
        fac = dense_factor(mat)
        assert fac.kind == "chol"
        err = np.linalg.norm(fac.reconstruct() - mat)
        assert err <= 1e-10 * (1 + np.linalg.norm(mat))
        rhs = rng.standard_normal(order)
        assert np.allclose(mat @ fac.solve(rhs), rhs, atol=1e-8 * (1 + np.abs(rhs).max()))


def test_dense_factor_indefinite_falls_back_to_eig():
    rng = np.random.default_rng(47)
    mat = random_sym(rng, 8)
    mat -= (np.min(np.linalg.eigvalsh(mat)) - 1.0) * 0  # keep indefinite as drawn
    if np.min(np.linalg.eigvalsh(mat)) > 0:
        mat[0, 0] -= 10 * np.trace(mat)
    fac = dense_factor(mat)
    assert fac.kind == "eig"
    err = np.linalg.norm(fac.reconstruct() - mat)
    assert err <= 1e-10 * (1 + np.linalg.norm(mat))


def test_dense_factor_tiny_pivot_falls_back_to_eig():
    # Rank-deficient PSD: numpy's Cholesky may succeed with a ~0 pivot, but the
    # pivot guard must reroute to the eigendecomposition.
    v = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
    fac = dense_factor(v)
    assert fac.kind == "eig"
    assert np.linalg.norm(fac.reconstruct() - v) <= 1e-10 * (1 + np.linalg.norm(v))


def test_dense_factor_rejects_non_finite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotFinite):
        dense_factor(bad)


def test_dense_factor_order_up_to_64_reconstruction():
    rng = np.random.default_rng(53)
    mat = random_sym(rng, 64)
    fac = dense_factor(mat)
    assert isinstance(fac, CholeskyOrEig)
    assert np.linalg.norm(fac.reconstruct() - mat) <= 1e-10 * (
        1 + np.linalg.norm(mat)
    )
