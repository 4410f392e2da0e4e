"""Oracle-backed tests for the symmetric-matrix kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesdp.errors import DimensionMismatch, NonTriangularLength, NotFinite
from treesdp.linalg import (
    CLOSED_FORM_MIN_STACK,
    CholeskyOrEig,
    _order2_lower,
    bmm_einsum,
    cholesky_lo,
    dense_factor,
    eigh_lo,
    eigvalsh_lo,
    lapack_errstate,
    smat,
    smat_stack,
    sorted_unique,
    svec,
    svec_stack,
    sym_kron_stack,
)
from util import (
    oracle_smat_stack,
    oracle_sym_kron_stack,
    reconstruct_factor,
    same_bits,
    sym_kron_matrix,
)


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


def test_smat_stack_is_bitwise_the_scatter_formula():
    rng = np.random.default_rng(19)
    for order in range(19):
        t = order * (order + 1) // 2
        for shape in ((t,), (0, t), (1, t), (40, t), (3, 5, t)):
            vecs = rng.standard_normal(shape)
            got = smat_stack(vecs)
            assert got.shape == shape[:-1] + (order, order)
            assert same_bits(got, oracle_smat_stack(vecs))
        assert same_bits(smat(vecs[0, 0]), oracle_smat_stack(vecs[0, 0]))


def test_svec_stack_is_bitwise_svec_on_each_matrix():
    # every order up to 18, and strided stacks as hess_inv_apply passes them
    rng = np.random.default_rng(83)
    for order in range(1, 19):
        for shape in ((0,), (1,), (40,), (3, 5)):
            mats = rng.standard_normal((order, order) + shape)
            mats = np.moveaxis(mats + np.swapaxes(mats, 0, 1), (0, 1), (-2, -1))
            got = svec_stack(mats)
            flat = mats.reshape(-1, order, order)
            want = np.stack([svec(m) for m in flat]) if flat.size else got
            assert same_bits(got, want.reshape(shape + want.shape[-1:]))


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


def test_sym_kron_stack_is_bitwise_the_full_formula():
    # one triangle, mirrored, gives the very floats of the full t x t
    # formula for W symmetrized as ConeOps.scaling_point symmetrizes it
    rng = np.random.default_rng(31)
    for order in range(1, 19):
        for g in (0, 1, 40):
            a = rng.standard_normal((g, order, order))
            w = a @ np.swapaxes(a, 1, 2) + order * np.eye(order)
            w = 0.5 * (w + np.swapaxes(w, 1, 2))
            stacked = sym_kron_stack(w)
            assert np.array_equal(stacked, oracle_sym_kron_stack(w))
            assert np.array_equal(stacked, np.swapaxes(stacked, 1, 2))


def test_sym_kron_of_pd_operand_is_pd():
    rng = np.random.default_rng(29)
    for order in (2, 3, 6):
        w = random_pd(rng, order)
        mat = sym_kron_matrix(w, w)
        assert np.min(np.linalg.eigvalsh(mat)) > 0


# ------------------------------------------------ private numpy kernels
def test_private_numpy_kernels_match_their_public_counterparts():
    # a numpy upgrade that changes or removes one of them fails here
    rng = np.random.default_rng(37)
    a = rng.standard_normal((5, 7, 7))
    sym = 0.5 * (a + np.swapaxes(a, 1, 2))
    spd = a @ np.swapaxes(a, 1, 2) + 7.0 * np.eye(7)
    with lapack_errstate():
        chol = cholesky_lo(spd)
        vals, vecs = eigh_lo(sym)
        only = eigvalsh_lo(sym)
        flat = np.zeros(400)
        block = flat[9:58].reshape(7, 7)  # a block view written in place
        block[...] = spd[2]
        cholesky_lo(block, out=block)
    assert same_bits(chol, np.linalg.cholesky(spd))
    want_vals, want_vecs = np.linalg.eigh(sym)
    assert same_bits(vals, want_vals)
    assert same_bits(vecs, want_vecs)
    assert same_bits(only, np.linalg.eigvalsh(sym))
    assert same_bits(block, np.linalg.cholesky(spd[2]))
    m = rng.standard_normal((5, 3, 7, 7))
    for eq, x, y in (("gij,gkjl->gkil", sym, m), ("gkil,glm->gkim", m, sym)):
        assert same_bits(
            bmm_einsum(eq, x, y), np.einsum(eq, x, y, optimize=True)
        )


def test_lapack_errstate_raises_what_np_linalg_raises():
    not_pd = np.array([[[1.0, 2.0], [2.0, 1.0]]])
    nan = np.full((1, 4, 4), np.nan)
    for call, public, arg in (
        (cholesky_lo, np.linalg.cholesky, not_pd),
        (eigh_lo, np.linalg.eigh, nan),
        (eigvalsh_lo, np.linalg.eigvalsh, nan),
    ):
        with pytest.raises(np.linalg.LinAlgError):
            public(arg)
        with pytest.raises(np.linalg.LinAlgError), lapack_errstate():
            call(arg)


# -------------------------------------------------- order-2 closed forms
# Stack sizes on both sides of the closed forms' crossover
SIZES_2X2 = (1, CLOSED_FORM_MIN_STACK - 1, CLOSED_FORM_MIN_STACK, 599)


def lower_2x2(a, b, c):
    """The order-2 stack [[a, b], [b, c]] of three equal-length arrays."""
    a, b, c = np.broadcast_arrays(*(np.asarray(x, float) for x in (a, b, c)))
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def outcome(fn, mats):
    """What ``fn(mats)`` gives: its arrays, or the type of what it raised."""
    try:
        with lapack_errstate():
            got = fn(mats)
    except np.linalg.LinAlgError as err:
        return type(err)
    return got if isinstance(got, tuple) else (got,)


def assert_like_numpy(mats):
    """eigh_lo and eigvalsh_lo give np.linalg's bits, or raise as it does."""
    for ours, public in ((eigh_lo, np.linalg.eigh),
                         (eigvalsh_lo, np.linalg.eigvalsh)):
        got, want = outcome(ours, mats), outcome(public, mats)
        if isinstance(want, type):
            assert got is want
        else:
            assert len(got) == len(want)
            assert all(same_bits(g, w) for g, w in zip(got, want))


def tiled(mats, size):
    """A stack of ``size`` matrices: ``mats`` repeated cyclically."""
    return np.resize(mats, (size,) + mats.shape[1:])


def fixed_2x2_stacks():
    rng = np.random.default_rng(61)
    n = 599
    stacks = {}
    for scale in (1.0, 1e8, 1e-8, 1e100, 1e-100):
        g = rng.standard_normal((n, 2, 2))
        stacks[f"sym {scale:g}"] = 0.5 * (g + g.transpose(0, 2, 1)) * scale
        stacks[f"pd {scale:g}"] = (g @ g.transpose(0, 2, 1) + np.eye(2)) * scale
    d = rng.standard_normal((2, n))
    stacks["identity"] = np.tile(np.eye(2), (n, 1, 1))
    stacks["zero"] = np.zeros((n, 2, 2))
    stacks["diagonal"] = lower_2x2(d[0], 0.0, d[1])
    stacks["diagonal signed zeros"] = lower_2x2(
        d[0], -0.0, np.where(d[1] > 0, 0.0, -0.0)
    )
    zeros = np.where(rng.random((2, n)) < 0.5, 0.0, -0.0)
    stacks["zero diagonal, signs mixed"] = lower_2x2(zeros[0], d[0], zeros[1])
    stacks["a = c"] = lower_2x2(d[0], d[1], d[0])
    stacks["a = -c"] = lower_2x2(d[0], d[1], -d[0])
    for rel in (1e-20, 3e-17, 1e-16, 1e-17):  # around the split test
        stacks[f"b = {rel:g} a"] = lower_2x2(
            d[0], rel * d[0], d[0] * (1 + d[1] * 1e-15)
        )
        stacks[f"b = {rel:g} c"] = lower_2x2(d[0], rel * np.abs(d[1]), d[1])
    # LAPACK's second split tests: b^2 that underflows beside c = 0, and
    # b^2 near eps^2 |a c| + safmin with eps^2 |c| subnormal
    sign = np.sign(d[1])
    stacks["b^2 underflows"] = lower_2x2(
        d[0], sign * 2.0 ** rng.uniform(-1074, -540, n), 0.0 * sign
    )
    a = d[0] * 2.0 ** rng.uniform(0, 60, n)
    c = sign * 2.0 ** rng.uniform(-1060, -917, n)
    b = np.sqrt(2.0 ** -106 * np.abs(a * c) + 2.0 ** -1022)
    stacks["b^2 near safmin"] = lower_2x2(a, b * rng.uniform(0.97, 1.03, n), c)
    ints = rng.integers(-2, 3, (3, n)).astype(float)
    ints[0, np.abs(ints).max(axis=0) == 0] = 1.0
    stacks["small integers with ties"] = lower_2x2(*ints)
    return stacks


@pytest.mark.parametrize("size", SIZES_2X2)
@pytest.mark.parametrize("name", sorted(fixed_2x2_stacks()))
def test_order_2_kernels_are_numpys_bits(name, size):
    mats = tiled(fixed_2x2_stacks()[name], size)
    # every stack but the zero one is in the closed forms' range
    takes_closed_form = size >= CLOSED_FORM_MIN_STACK and name != "zero"
    assert (_order2_lower(mats) is not None) == takes_closed_form
    assert_like_numpy(mats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 ** 486, 2.0 ** -406])
def test_order_2_kernels_fall_back_on_one_bad_matrix(bad):
    # one non-finite or rescaled matrix sends the whole stack to LAPACK
    rng = np.random.default_rng(67)
    d = rng.standard_normal((3, 599))
    mats = lower_2x2(*d)
    assert _order2_lower(mats) is not None
    mats[300] = [[bad, 0.5 * bad], [0.5 * bad, -bad]]
    assert _order2_lower(mats) is None
    assert_like_numpy(mats)


def test_order_2_kernels_at_the_edges_of_the_unscaled_range():
    # 2^-405 and 2^485 are the largest |entry| no routine rescales
    rng = np.random.default_rng(71)
    d = rng.uniform(-1.0, 1.0, (3, 599))
    for edge in (2.0 ** -405, 2.0 ** 485):
        for which in range(3):
            entries = [edge * x for x in d]
            entries[which] = np.full(599, edge)
            mats = lower_2x2(*entries)
            assert _order2_lower(mats) is not None
            assert_like_numpy(mats)


def test_order_2_kernels_read_only_the_lower_triangle():
    rng = np.random.default_rng(73)
    mats = lower_2x2(*rng.standard_normal((3, 599)))
    mats[:, 0, 1] = np.nan  # as the gufuncs, never read
    assert _order2_lower(mats) is not None
    assert_like_numpy(mats)


def test_order_2_kernels_keep_the_stack_shape():
    rng = np.random.default_rng(79)
    mats = lower_2x2(*rng.standard_normal((3, 4, CLOSED_FORM_MIN_STACK)))
    assert _order2_lower(mats) is not None
    assert_like_numpy(mats)


_2x2_entry = st.floats(width=64)
_2x2_scaled = st.builds(
    lambda m, e: m * 2.0 ** e,
    st.floats(-2.0, 2.0), st.integers(-420, 490),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*(st.one_of(_2x2_entry, _2x2_scaled),) * 3),
             min_size=1, max_size=6),
    st.sampled_from(SIZES_2X2),
)
def test_order_2_kernels_are_numpys_bits_on_any_entries(entries, size):
    assert_like_numpy(tiled(lower_2x2(*np.array(entries).T), size))


# ------------------------------------------------------------ sorted unique
@pytest.mark.parametrize(
    "keys",
    [
        np.random.default_rng(43).integers(0, 40_000, 25_000),
        np.random.default_rng(47).integers(-(2 ** 40), 2 ** 40, 100_000),
        np.random.default_rng(53).integers(0, 50, 1_000).astype(np.int32),
        np.zeros(0, dtype=np.int64),
        np.full(300, 7, dtype=np.int64),
        -np.arange(1, 200, dtype=np.int64) % 17 - 40,
        np.arange(-500, 500, 3, dtype=np.int64),
        np.repeat(np.arange(100, dtype=np.int64), 4),
    ],
    ids=["random", "random-wide", "int32", "empty", "all-equal",
         "negative", "sorted", "sorted-repeats"],
)
def test_sorted_unique_is_np_unique(keys):
    before = keys.copy()
    got, want = sorted_unique(keys), np.unique(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(keys, before)  # the input is not sorted in place


# ----------------------------------------------------------------- factorization
def test_dense_factor_pd_uses_cholesky():
    rng = np.random.default_rng(43)
    for order in (1, 4, 16, 64):
        mat = random_pd(rng, order)
        fac = dense_factor(mat)
        assert fac.kind == "chol"
        err = np.linalg.norm(reconstruct_factor(fac) - mat)
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
    err = np.linalg.norm(reconstruct_factor(fac) - mat)
    assert err <= 1e-10 * (1 + np.linalg.norm(mat))


def test_dense_factor_tiny_pivot_falls_back_to_eig():
    # Rank-deficient PSD: numpy's Cholesky may succeed with a ~0 pivot, but the
    # pivot guard must reroute to the eigendecomposition.
    v = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
    fac = dense_factor(v)
    assert fac.kind == "eig"
    assert np.linalg.norm(reconstruct_factor(fac) - v) <= 1e-10 * (1 + np.linalg.norm(v))


def test_dense_factor_rejects_non_finite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotFinite):
        dense_factor(bad)


def test_dense_factor_order_up_to_64_reconstruction():
    rng = np.random.default_rng(53)
    mat = random_sym(rng, 64)
    fac = dense_factor(mat)
    assert isinstance(fac, CholeskyOrEig)
    assert np.linalg.norm(reconstruct_factor(fac) - mat) <= 1e-10 * (
        1 + np.linalg.norm(mat)
    )
