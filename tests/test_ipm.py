"""Tests for the self-dual embedding interior-point solver.

Oracles used here, all independent of the implementation under test:

* finite differences of hand-written barrier values for gradients and
  Hessian actions;
* a dense materialization of the full Newton KKT system (6 row groups)
  solved with numpy, compared against the reduced-form direction;
* exact algebraic identities (log-homogeneity, the trace identity
  x'ds + s'dx + tau dkappa + kappa dtau = (nu+1)(mu_target - mu),
  skew-symmetry of the embedding matrix);
* tiny problems with known optimal values (1x1 trace toy, the 2x2
  off-diagonal cost with unit diagonal, the 5-cycle orthonormal
  representation bound sqrt(5)).
"""

import numpy as np
import numpy._core.einsumfunc as einsumfunc
import pytest
from numpy.linalg import _umath_linalg as umath_linalg

from treesdp import frontends, ipm, linalg
from treesdp.chordal import Graph, decompose, sparsity_graph
from treesdp.convert import ConeSpec, build_ctc, dualize, separate_with_aux
from treesdp.errors import (
    DimensionMismatch,
    IndefinitePivot,
    InfeasibleOrUnbounded,
    MaxIterations,
    NotFinite,
    NotInterior,
    NumericalStall,
    SingularNormalMatrix,
)
from treesdp.frontends import gen_maxcut, gen_maxkcut, solve_sdp
from treesdp.ipm import (
    ConeOps,
    DenseHsdeProgram,
    DualizedHsdeProgram,
    HsdeSolver,
    SolverOptions,
    Step,
    adaptive_step_solve,
    short_step_solve,
)
from treesdp.linalg import (
    CLOSED_FORM_MIN_STACK,
    _CONGRUENCE,
    _congruence_steps,
    congruence_stack,
    smat,
    tri,
)

from util import (
    SparseSymmetric,
    check_interior,
    data_norm,
    hess_apply,
    make_problem,
    measured_pattern,
    oracle_grad,
    oracle_hess_inv_apply,
    oracle_max_step,
    oracle_psd_stacks,
    power_flow_problem,
    random_partially_separable_problem,
    reference_cone_tables,
    row_assemble,
    same_bits,
    star_arrow_problem,
    with_wide_constraint,
)
from test_normal import REFERENCE_KINDS, _reference_instance

# a second-order cone, then matrix blocks of orders 3, 2 and 3, the last
# with four orthant coordinates
COMPOSITE = ConeSpec(3, [3, 2, 3], [0, 0, 0], [0, 0, 4])
COMPOSITE_SEGMENTS = (
    ("soc", 3), ("psd", 3), ("psd", 2), ("psd", 3), ("nonneg", 4),
)


def make_interior(ops, rng, scale=0.3):
    e = ops.identity()
    v = rng.standard_normal(e.size)
    z = e + scale * v / np.linalg.norm(v)
    check_interior(ops, z)
    return z


def barrier_value(ops, z):
    total = 0.0
    for sl in ops.soc_slices:
        v = z[sl]
        total += -0.5 * np.log(v[0] ** 2 - v[1:] @ v[1:])
    for order, idx in ops.psd_groups.items():
        for row in idx:
            total += -np.linalg.slogdet(smat(z[row]))[1]
    if ops.nn_idx.size:
        total += -np.sum(np.log(z[ops.nn_idx]))
    return total


def build_program(problem, with_aux=False):
    td = decompose(sparsity_graph(problem.n, problem.triplets))
    ctc = separate_with_aux(problem, td) if with_aux else build_ctc(
        problem, td
    )
    return DualizedHsdeProgram(dualize(ctc))


def trace_toy():
    """min x s.t. x = 1, x psd(1); optimum 1."""
    one = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    return make_problem(one, [one], np.array([1.0]))


def offdiag_toy():
    """min 2*X01 s.t. diag(X) = 1, X psd(2); optimum -2 at X01 = -1."""
    cost = SparseSymmetric(order=2, rows=[1], cols=[0], vals=[1.0])
    e00 = SparseSymmetric(order=2, rows=[0], cols=[0], vals=[1.0])
    e11 = SparseSymmetric(order=2, rows=[1], cols=[1], vals=[1.0])
    return make_problem(cost, [e00, e11], np.array([1.0, 1.0]))


def cycle5_theta():
    """min <-J, X> s.t. tr X = 1, X_ij = 0 on the 5-cycle; optimum
    -sqrt(5)."""
    n = 5
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(i + 1):
            rows.append(i)
            cols.append(j)
            vals.append(-1.0)
    cost = SparseSymmetric(order=n, rows=rows, cols=cols, vals=vals)
    trace = SparseSymmetric(
        order=n, rows=list(range(n)), cols=list(range(n)), vals=[1.0] * n
    )
    cons = [trace]
    b = [1.0]
    for i, j in [(1, 0), (2, 1), (3, 2), (4, 3), (4, 0)]:
        cons.append(SparseSymmetric(order=n, rows=[i], cols=[j], vals=[1.0]))
        b.append(0.0)
    return make_problem(cost, cons, np.array(b))


def objective_of(program, result):
    dual = program.dualized
    z = dual.ctc_primal(result.state.y, result.state.tau)
    return float(dual.ctc.c_z @ z)


def assert_feasibility_kept(program, result):
    bound = 1e-8 * (1.0 + data_norm(program.dualized))
    assert result.feas_residual_max <= bound


# ---------------------------------------------------------------------------
# cone operations
# ---------------------------------------------------------------------------


def test_identity_is_interior_and_nu_counts():
    ops = ConeOps(COMPOSITE)
    e = ops.identity()
    check_interior(ops, e)
    assert ops.nu == 1 + 3 + 2 + 3 + 4
    # gradient at the identity is minus the identity
    assert np.allclose(ops.grad(ops.scaling_point(e, e)), -e, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    ops = ConeOps(COMPOSITE)
    z = make_interior(ops, rng)
    g = ops.grad(ops.scaling_point(z, ops.identity()))
    h = 1e-6
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        fd = (barrier_value(ops, zp) - barrier_value(ops, zm)) / (2 * h)
        assert abs(fd - g[i]) <= 1e-4 * (1 + abs(g[i]))


def test_hessian_action_matches_gradient_differences():
    rng = np.random.default_rng(12)
    ops = ConeOps(COMPOSITE)
    x = make_interior(ops, rng)
    # the scaling point of (x, -grad x) is x itself, so the Hessian at
    # that point is the barrier Hessian at x; check the forward oracle
    # and its inverse, the solver's hess_inv_apply
    w = ops.scaling_point(x, -oracle_grad(ops, x))
    h = 1e-6
    for _ in range(4):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fd = oracle_grad(ops, x + h * v) - oracle_grad(ops, x - h * v)
        fd /= 2 * h
        hv = hess_apply(ops, w, v)
        assert np.allclose(hv, fd, rtol=2e-4, atol=2e-4)
        assert np.allclose(ops.hess_inv_apply(w, fd), v, rtol=1e-3, atol=1e-3)


def test_log_homogeneity_identity():
    rng = np.random.default_rng(13)
    ops = ConeOps(COMPOSITE)
    x = make_interior(ops, rng)
    g = ops.grad(ops.scaling_point(x, ops.identity()))
    w = ops.scaling_point(x, -g)
    assert np.allclose(hess_apply(ops, w, x), -g, atol=1e-9)
    assert np.allclose(ops.hess_inv_apply(w, -g), x, atol=1e-9)


def test_scaling_point_invariant_and_inverse():
    rng = np.random.default_rng(14)
    ops = ConeOps(COMPOSITE)
    for trial in range(5):
        x = make_interior(ops, rng)
        s = make_interior(ops, rng)
        w = ops.scaling_point(x, s)
        assert np.allclose(hess_apply(ops, w, x), s, rtol=1e-9, atol=1e-9)
        assert np.allclose(
            ops.hess_inv_apply(w, s), x, rtol=1e-9, atol=1e-9
        )
        v = rng.standard_normal((x.size, 3))
        round_trip = ops.hess_inv_apply(w, hess_apply(ops, w, v))
        assert np.allclose(round_trip, v, rtol=1e-9, atol=1e-9)
        # batched columns equal one-by-one application
        for k in range(3):
            assert np.allclose(
                ops.hess_inv_apply(w, v[:, k]), ops.hess_inv_apply(w, v)[:, k]
            )


def count_einsum_paths(monkeypatch):
    """Counter of ``einsum_path`` calls, direct or inside ``np.einsum``."""
    calls = []
    real = einsumfunc.einsum_path

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counted)
    monkeypatch.setattr(einsumfunc, "einsum_path", counted)
    return calls


def test_congruence_is_bitwise_greedy_einsum():
    rng = np.random.default_rng(41)
    for order in range(1, 19):
        for k in range(1, 5):
            for g in (1, 5):
                a = rng.standard_normal((g, order, order))
                w = 0.5 * (a + np.swapaxes(a, 1, 2))
                b = rng.standard_normal((g, k, order, order))
                m = 0.5 * (b + np.swapaxes(b, 2, 3))
                path = np.einsum_path(_CONGRUENCE, w, m, w, optimize="greedy")[0]
                oracle = np.einsum(_CONGRUENCE, w, m, w, optimize=path)
                assert np.array_equal(congruence_stack(w, m), oracle)


# matrix blocks of every order 1-18, two of some, after a second-order
# cone, and orthant coordinates in two of them
WIDE = ConeSpec(
    4, [*range(1, 19), 3, 18], [0] * 20, [0] * 17 + [5, 0, 2]
)
WIDE_SEGMENTS = (
    (("soc", 4),)
    + tuple(("psd", o) for o in range(1, 19))
    + (("nonneg", 5), ("psd", 3), ("psd", 18), ("nonneg", 2))
)


def test_hess_inv_apply_is_bitwise_the_gather_formula():
    ops = ConeOps(WIDE)
    rng = np.random.default_rng(61)
    w = ops.scaling_point(make_interior(ops, rng), make_interior(ops, rng))
    for k in (1, 3):
        v = rng.standard_normal((ops.dim, k))
        assert np.array_equal(
            ops.hess_inv_apply(w, v), oracle_hess_inv_apply(ops, w, v)
        )
    v = rng.standard_normal(ops.dim)
    assert np.array_equal(
        ops.hess_inv_apply(w, v), oracle_hess_inv_apply(ops, w, v)
    )


def _nan_in_psd_segment(ops, z, order):
    """A copy of z with one off-diagonal entry of the first order-``order``
    matrix segment set to NaN.  From order 3 on, LAPACK's eigensolver
    reports the NaN as a failure."""
    z = z.copy()
    z[ops.psd_groups[order][0, 1]] = np.nan
    return z


@pytest.mark.parametrize("order", [3, 7, 18])
def test_nan_in_x_makes_scaling_point_raise_linalg_error(order):
    ops = ConeOps(WIDE)
    rng = np.random.default_rng(67)
    x, s = make_interior(ops, rng), make_interior(ops, rng)
    with pytest.raises(np.linalg.LinAlgError):
        ops.scaling_point(_nan_in_psd_segment(ops, x, order), s)
    with pytest.raises(np.linalg.LinAlgError):
        ops.scaling_point(x, _nan_in_psd_segment(ops, s, order))


@pytest.mark.parametrize("order", [3, 7, 18])
def test_nan_in_a_direction_makes_max_step_raise_linalg_error(order):
    ops = ConeOps(WIDE)
    rng = np.random.default_rng(71)
    w = ops.scaling_point(make_interior(ops, rng), make_interior(ops, rng))
    d = rng.standard_normal(ops.dim)
    bad = _nan_in_psd_segment(ops, d, order)
    assert np.isfinite(ops.max_step(w, d, d))
    with pytest.raises(np.linalg.LinAlgError):
        ops.max_step(w, bad, d)
    with pytest.raises(np.linalg.LinAlgError):
        ops.max_step(w, d, bad)


def test_repeat_hess_inv_apply_searches_no_path(monkeypatch):
    ops = ConeOps(COMPOSITE)
    rng = np.random.default_rng(42)
    w = ops.scaling_point(make_interior(ops, rng), make_interior(ops, rng))
    v = rng.standard_normal((ops.dim, 3))
    first = ops.hess_inv_apply(w, v), ops.hess_inv_apply(w, v[:, 0])
    calls = count_einsum_paths(monkeypatch)
    second = ops.hess_inv_apply(w, v), ops.hess_inv_apply(w, v[:, 0])
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_congruence_cache_holds_more_than_64_shape_pairs(monkeypatch):
    # one wide-bag solve needs two shape pairs per bag order; 80 pairs
    # here, as on a 40-order graph, must all hit on the second pass
    shapes = [((2, o, o), (2, k, o, o)) for o in range(1, 21) for k in (1, 2, 3, 4)]
    for w_shape, m_shape in shapes:
        congruence_stack(np.ones(w_shape), np.ones(m_shape))
    before = _congruence_steps.cache_info()
    calls = count_einsum_paths(monkeypatch)
    for w_shape, m_shape in shapes:
        congruence_stack(np.ones(w_shape), np.ones(m_shape))
    after = _congruence_steps.cache_info()
    assert len(shapes) > 64
    assert calls == []
    assert (after.hits - before.hits, after.misses) == (len(shapes), before.misses)


def test_scaling_point_psd_example():
    # X = 4 I, S = I on one psd(3) segment: W = 2 I
    ops = ConeOps(ConeSpec(0, [3], [0], [0]))
    x = ops.identity() * 4.0
    s = ops.identity()
    w = ops.scaling_point(x, s)
    assert np.allclose(w.psd_stacks[3][0], 2.0 * np.eye(3), atol=1e-12)


def test_scaling_point_soc_identity_fixpoint():
    ops = ConeOps(ConeSpec(4, [], [], []))
    e = ops.identity()
    w = ops.scaling_point(e, e)
    assert np.allclose(w.soc[0].w, e, atol=1e-12)


def test_scaling_point_rejects_boundary():
    ops = ConeOps(COMPOSITE)
    rng = np.random.default_rng(15)
    x = make_interior(ops, rng)
    s = make_interior(ops, rng)
    bad = s.copy()
    # break the first matrix block: make it indefinite
    bad[COMPOSITE.block_start[0]] = -5.0
    with pytest.raises(NotInterior):
        ops.scaling_point(x, bad)
    with pytest.raises(NotInterior):
        check_interior(ops, bad)


def step_of_x(ops, z, dz):
    """The step to the boundary along dz from x = z, with s = e fixed."""
    w = ops.scaling_point(z, ops.identity())
    return ops.max_step(w, dz, np.zeros_like(dz))


def test_max_step_boundary_oracle():
    rng = np.random.default_rng(16)
    ops = ConeOps(COMPOSITE)
    e, hit_finite = ops.identity(), 0
    for trial in range(8):
        z = make_interior(ops, rng)
        dz = rng.standard_normal(z.size)
        alpha = step_of_x(ops, z, dz)
        # the s side takes the same calls on the same point
        w_s = ops.scaling_point(e, z)
        assert ops.max_step(w_s, np.zeros_like(dz), dz) == alpha
        if np.isinf(alpha):
            continue
        hit_finite += 1
        check_interior(ops, z + 0.999 * alpha * dz)
        with pytest.raises(NotInterior):
            check_interior(ops, z + 1.01 * alpha * dz)
    assert hit_finite >= 4


def test_max_step_exact_values():
    ops = ConeOps(ConeSpec(0, [0], [0], [3]))  # an orthant alone
    z = np.array([1.0, 2.0, 3.0])
    dz = np.array([-2.0, 1.0, -1.0])
    assert step_of_x(ops, z, dz) == pytest.approx(0.5)
    assert step_of_x(ops, z, np.ones(3)) == np.inf

    ops = ConeOps(ConeSpec(0, [2], [0], [0]))
    x = ops.identity()
    d = -2.0 * ops.identity()
    assert step_of_x(ops, x, d) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# cone tables against the per-segment walk
# ---------------------------------------------------------------------------


def assert_same_cone_tables(ops, want):
    """ConeOps's tables are the reference's, byte for byte: the slices and
    the order keys by repr (so a numpy integer would not pass for an int),
    the index arrays and the identity by ``same_bits``."""
    assert repr(ops.soc_slices) == repr(want.soc_slices)
    assert repr(list(ops.psd_groups)) == repr(list(want.psd_groups))
    for got, ref in zip(ops.psd_groups.values(), want.psd_groups.values()):
        assert same_bits(got, ref)
    assert same_bits(ops.nn_idx, want.nn_idx)
    assert repr(ops.nu) == repr(want.nu)
    assert repr(ops.dim) == repr(want.dim)
    assert same_bits(ops.identity(), want.identity)


@pytest.mark.parametrize("kind", [*REFERENCE_KINDS, "power-flow"])
def test_cone_tables_match_the_segment_walk_on_conversions(kind):
    # the cones of a dctc, dctc-aux and ctc solve, against the walk over
    # the per-bag segments the per-row oracle lists
    if kind == "power-flow":
        problem = power_flow_problem(3, 8)
        td = decompose(sparsity_graph(problem.n, problem.triplets))
    else:
        problem, td, _ = _reference_instance(kind)
    for with_aux in (False, True):
        ctc = (separate_with_aux if with_aux else build_ctc)(problem, td)
        segments = row_assemble(problem, td, with_aux)[1].segments
        if with_aux and kind in ("dctc-aux", "power-flow"):
            assert any(seg[0] == "free" for seg in segments)
        else:
            ops = ConeOps(ctc.cone)  # the ctc method's cone
            assert_same_cone_tables(ops, reference_cone_tables(segments))
        dual = dualize(ctc)
        kept = [seg for seg in segments if seg[0] != "free"]
        assert_same_cone_tables(
            ConeOps(dual.cone_x),
            reference_cone_tables([("soc", 1 + dual.f), *kept]),
        )


class _Captured(Exception):
    pass


def test_cone_tables_match_the_segment_walk_on_fixed_and_oracle_cones(
    monkeypatch,
):
    cases = [(COMPOSITE, COMPOSITE_SEGMENTS), (WIDE, WIDE_SEGMENTS)]
    cones = []

    def capture(program, eps):
        cones.append(program.cone)
        raise _Captured

    monkeypatch.setattr(frontends, "adaptive_step_solve", capture)
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for k in (2, 3):  # MAX 3-CUT has inequality rows, MAX CUT none
        sdp = gen_maxkcut(path, k)
        with pytest.raises(_Captured):
            frontends.dense_reference_solve(sdp)
        slacks = [("nonneg", sdp.n_ineq)] if sdp.n_ineq else []
        cases.append((cones[-1], [("psd", sdp.n), *slacks]))
    for cone, segments in cases:
        assert_same_cone_tables(ConeOps(cone), reference_cone_tables(segments))


def test_cone_ops_rejects_a_free_coordinate():
    problem, td, _ = _reference_instance("dctc-aux")
    ctc = separate_with_aux(problem, td)
    assert ctc.n_aux.any()
    for cone in (ctc.cone, ConeSpec(0, [2], [1], [0])):
        with pytest.raises(DimensionMismatch, match="free coordinates"):
            ConeOps(cone)


# ---------------------------------------------------------------------------
# embedding initialization and structure
# ---------------------------------------------------------------------------


def test_init_is_feasible_and_centered():
    rng = np.random.default_rng(21)
    problem = random_partially_separable_problem(rng, 7, 4, ineq_prob=0.4)[0]
    program = build_program(problem)
    solver = HsdeSolver(program, SolverOptions(method="short"))
    st = solver.init_embedding()
    assert st.mu == pytest.approx(1.0, abs=1e-14)
    assert st.tau == st.theta == st.kappa == 1.0
    assert np.array_equal(st.x, solver.e)
    assert np.array_equal(st.s, solver.e)
    bound = 1e-13 * (1.0 + data_norm(program.dualized))
    assert solver.feasibility_residual(st) <= bound


def test_embedding_matrix_is_skew_and_maps_start_correctly():
    rng = np.random.default_rng(22)
    problem = random_partially_separable_problem(rng, 6, 3, ineq_prob=0.5)[0]
    program = build_program(problem)
    solver = HsdeSolver(program, SolverOptions())
    nx, ny = program.dim_x, program.dim_y
    m_dense = program.apply_m(np.eye(nx)).T
    c, b = solver.c, solver.b
    r_d, r_p, r_c = solver.r_d, solver.r_p, solver.r_c
    n = nx + ny + 2
    q = np.zeros((n, n))
    q[:nx, nx:nx + ny] = m_dense.T
    q[:nx, nx + ny] = -c
    q[:nx, nx + ny + 1] = -r_d
    q[nx:nx + ny, :nx] = -m_dense
    q[nx:nx + ny, nx + ny] = b
    q[nx:nx + ny, nx + ny + 1] = -r_p
    q[nx + ny, :nx] = c
    q[nx + ny, nx:nx + ny] = -b
    q[nx + ny, nx + ny + 1] = -r_c
    q[nx + ny + 1, :nx] = r_d
    q[nx + ny + 1, nx:nx + ny] = r_p
    q[nx + ny + 1, nx + ny] = r_c
    assert np.allclose(q + q.T, 0.0, atol=1e-12)
    st = solver.init_embedding()
    z0 = np.concatenate([st.x, st.y, [st.tau], [st.theta]])
    qz = q @ z0
    expected = np.concatenate(
        [-st.s, np.zeros(ny), [-st.kappa], [solver.nu + 1.0]]
    )
    assert np.allclose(qz, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Newton direction against a dense KKT oracle
# ---------------------------------------------------------------------------


def dense_kkt_direction(solver, st, w, mu_target):
    program = solver.program
    ops = solver.ops
    nx, ny = program.dim_x, program.dim_y
    m_dense = program.apply_m(np.eye(nx)).T
    d_dense = hess_apply(ops, w, np.eye(nx))
    c, b = solver.c, solver.b
    r_d, r_p, r_c = solver.r_d, solver.r_p, solver.r_c
    d = -st.s - mu_target * oracle_grad(ops, st.x)
    d0 = -st.kappa + mu_target / st.tau
    big_d0 = st.kappa / st.tau
    n = 2 * nx + ny + 3
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    ix = slice(0, nx)
    iy = slice(nx, nx + ny)
    it, ith, ik = nx + ny, nx + ny + 1, nx + ny + 2
    is_ = slice(nx + ny + 3, n)
    r = 0
    a[r:r + nx, iy] = m_dense.T
    a[r:r + nx, it] = -c
    a[r:r + nx, ith] = -r_d
    a[r:r + nx, is_] = np.eye(nx)
    r += nx
    a[r:r + ny, ix] = -m_dense
    a[r:r + ny, it] = b
    a[r:r + ny, ith] = -r_p
    r += ny
    a[r, ix] = c
    a[r, iy] = -b
    a[r, ith] = -r_c
    a[r, ik] = 1.0
    r += 1
    a[r, ix] = r_d
    a[r, iy] = r_p
    a[r, it] = r_c
    r += 1
    a[r:r + nx, ix] = d_dense
    a[r:r + nx, is_] = np.eye(nx)
    rhs[r:r + nx] = d
    r += nx
    a[r, it] = big_d0
    a[r, ik] = 1.0
    rhs[r] = d0
    sol = np.linalg.solve(a, rhs)
    return (
        sol[ix],
        sol[iy],
        sol[it],
        sol[ith],
        sol[ik],
        sol[is_],
    )


def walk_two_steps(solver):
    st = solver.init_embedding()
    for _ in range(2):
        w = solver.ops.scaling_point(st.x, st.s)
        solver.program.normal_update(solver.ops, w)
        step = solver.nt_direction(st, w, 0.6 * st.mu)
        st = solver.apply_step(st, step, 0.8)
    return st


@pytest.mark.parametrize("with_aux", [False, True])
def test_direction_matches_dense_kkt(with_aux):
    rng = np.random.default_rng(31)
    problem = random_partially_separable_problem(rng, 7, 5, ineq_prob=0.4)[0]
    program = build_program(problem, with_aux=with_aux)
    solver = HsdeSolver(program, SolverOptions())
    st = walk_two_steps(solver)
    w = solver.ops.scaling_point(st.x, st.s)
    program.normal_update(solver.ops, w)
    mu_target = 0.4 * st.mu
    step = solver.nt_direction(st, w, mu_target)
    dx, dy, dtau, dtheta, dkappa, ds = dense_kkt_direction(
        solver, st, w, mu_target
    )
    scale = 1.0 + max(np.linalg.norm(dx), np.linalg.norm(dy))
    assert np.allclose(step.dx, dx, atol=1e-6 * scale)
    assert np.allclose(step.dy, dy, atol=1e-6 * scale)
    assert step.dtau == pytest.approx(dtau, abs=1e-6 * scale)
    assert step.dtheta == pytest.approx(dtheta, abs=1e-6 * scale)
    assert step.dkappa == pytest.approx(dkappa, abs=1e-6 * scale)
    assert np.allclose(step.ds, ds, atol=1e-6 * scale)


def test_direction_trace_identity_and_orthogonality():
    rng = np.random.default_rng(32)
    problem = random_partially_separable_problem(rng, 8, 5, ineq_prob=0.3)[0]
    program = build_program(problem)
    solver = HsdeSolver(program, SolverOptions())
    st = walk_two_steps(solver)
    w = solver.ops.scaling_point(st.x, st.s)
    program.normal_update(solver.ops, w)
    for mu_target in (0.0, 0.5 * st.mu, st.mu):
        step = solver.nt_direction(st, w, mu_target)
        lhs = (
            st.x @ step.ds
            + st.s @ step.dx
            + st.tau * step.dkappa
            + st.kappa * step.dtau
        )
        expected = (solver.nu + 1.0) * (mu_target - st.mu)
        assert lhs == pytest.approx(expected, abs=1e-9 * (solver.nu + 1))
        cross = step.dx @ step.ds + step.dtau * step.dkappa
        scale = (
            np.linalg.norm(step.dx) * np.linalg.norm(step.ds)
            + abs(step.dtau * step.dkappa)
            + st.mu
        )
        assert abs(cross) <= 1e-8 * scale


def test_direction_vanishes_at_center():
    rng = np.random.default_rng(33)
    problem = random_partially_separable_problem(rng, 6, 3, ineq_prob=0.5)[0]
    program = build_program(problem)
    solver = HsdeSolver(program, SolverOptions())
    st = solver.init_embedding()
    w = solver.ops.scaling_point(st.x, st.s)
    program.normal_update(solver.ops, w)
    step = solver.nt_direction(st, w, st.mu)
    norm = max(
        np.linalg.norm(step.dx),
        np.linalg.norm(step.dy),
        np.linalg.norm(step.ds),
        abs(step.dtau),
        abs(step.dtheta),
        abs(step.dkappa),
    )
    assert norm <= 1e-9


def test_step_preserves_linear_feasibility_for_any_alpha():
    rng = np.random.default_rng(34)
    problem = random_partially_separable_problem(rng, 7, 4, ineq_prob=0.4)[0]
    program = build_program(problem)
    solver = HsdeSolver(program, SolverOptions())
    st = walk_two_steps(solver)
    w = solver.ops.scaling_point(st.x, st.s)
    program.normal_update(solver.ops, w)
    step = solver.nt_direction(st, w, 0.3 * st.mu)
    bound = 1e-8 * (1.0 + data_norm(program.dualized))
    for alpha in (0.1, 0.37, 0.9):
        probe = solver.apply_step(st, step, alpha)
        assert solver.feasibility_residual(probe) <= bound


# ---------------------------------------------------------------------------
# end-to-end solves with known optima
# ---------------------------------------------------------------------------


def test_trace_toy_short_step_exact_contraction():
    program = build_program(trace_toy())
    result = short_step_solve(program, eps=1e-9, max_iter=1200)
    assert result.status == "optimal"
    assert result.state.mu <= 1e-9
    assert objective_of(program, result) == pytest.approx(1.0, abs=1e-6)
    assert_feasibility_kept(program, result)
    factor = 1.0 - 1.0 / (15.0 * np.sqrt(result.nu + 1.0))
    mus = [1.0] + [rec.mu for rec in result.records]
    for prev, cur in zip(mus, mus[1:]):
        assert abs(cur / prev - factor) <= 1e-12 * factor


def test_offdiag_toy_both_methods():
    # The maximizer here is rank-one, so the scaled Hessian degenerates
    # near the solution; the short-step method is exercised at the
    # default accuracy target, where the feasibility invariant must
    # (and does) hold with wide margin.
    problem = offdiag_toy()
    program = build_program(problem)
    short = short_step_solve(program, eps=1e-8, max_iter=2000)
    assert objective_of(program, short) == pytest.approx(-2.0, abs=1e-6)
    assert_feasibility_kept(program, short)

    program2 = build_program(problem)
    adaptive = adaptive_step_solve(program2, eps=1e-9, max_iter=100)
    assert objective_of(program2, adaptive) == pytest.approx(
        -2.0, abs=1e-6
    )
    assert_feasibility_kept(program2, adaptive)
    assert adaptive.iterations <= short.iterations
    # the aggressive steps may finish with tau*kappa slightly below the
    # 0.9*mu certificate threshold on this rank-one-optimum instance;
    # that downgrades the certificate without invalidating the solution
    assert adaptive.status in ("optimal", "guard_violated")
    assert adaptive.state.mu <= 1e-9


def test_inequality_problem_reaches_known_optimum():
    # min tr X s.t. X00 >= 1, X11 = 2, X01 = 0.3; optimum 3
    cost = SparseSymmetric(
        order=2, rows=[0, 1], cols=[0, 1], vals=[1.0, 1.0]
    )
    cons = [
        SparseSymmetric(order=2, rows=[0], cols=[0], vals=[1.0]),
        SparseSymmetric(order=2, rows=[1], cols=[1], vals=[1.0]),
        SparseSymmetric(order=2, rows=[1], cols=[0], vals=[1.0]),
    ]
    problem = make_problem(
        cost,
        cons,
        np.array([1.0, 2.0, 0.3]),
        ["ge", "eq", "eq"],
    )
    program = build_program(problem)
    result = adaptive_step_solve(program, eps=1e-9, max_iter=100)
    assert objective_of(program, result) == pytest.approx(3.0, abs=1e-6)
    assert_feasibility_kept(program, result)


def test_cycle5_reaches_sqrt5():
    program = build_program(cycle5_theta())
    result = adaptive_step_solve(program, eps=1e-9, max_iter=200)
    assert objective_of(program, result) == pytest.approx(
        -np.sqrt(5.0), abs=1e-5
    )
    assert_feasibility_kept(program, result)
    assert result.records[-1].theta < result.records[0].theta
    assert result.records[-1].theta < 1e-4


def test_multiblock_random_solve_with_diagnostics():
    rng = np.random.default_rng(41)
    problem, _ = random_partially_separable_problem(rng, 10, 6, ineq_prob=0.3)
    program = build_program(problem)
    opts = SolverOptions(method="adaptive", eps=1e-8, max_iter=150)
    result = HsdeSolver(program, opts).solve()
    assert result.state.mu <= 1e-8
    assert_feasibility_kept(program, result)
    assert result.time_per_iter_s > 0.0
    # the structural statistics agree with the last iteration's numbers
    stats, measured = program.pattern_stats(), measured_pattern(program.normal)
    assert stats["fill_blocks"] == measured["fill_blocks"] == 0
    assert stats["offdiag_blocks"] == measured["offdiag_blocks"]
    # adaptive and short agree on the objective
    program2 = build_program(problem)
    short = short_step_solve(program2, eps=1e-8, max_iter=5000)
    assert objective_of(program, result) == pytest.approx(
        objective_of(program2, short), abs=1e-5
    )


def test_infeasible_problem_raises_certificate():
    one = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    problem = make_problem(one, [one, one], np.array([1.0, 2.0]))
    program = build_program(problem)
    with pytest.raises(InfeasibleOrUnbounded) as err:
        adaptive_step_solve(program, eps=1e-13, max_iter=300)
    cert = err.value.certificate
    assert cert is not None
    assert cert["kappa"] > cert["tau"]


# ---------------------------------------------------------------------------
# failure taxonomy plumbing
# ---------------------------------------------------------------------------


def test_max_iterations_raised():
    program = build_program(offdiag_toy())
    with pytest.raises(MaxIterations):
        short_step_solve(program, eps=1e-9, max_iter=3)


def test_numerical_stall_raised():
    program = build_program(offdiag_toy())

    class Frozen(HsdeSolver):
        def nt_direction(self, st, w, mu_target, reuse=None):
            zero = np.zeros_like(st.x)
            return Step(
                dx=zero,
                dy=np.zeros_like(st.y),
                dtau=0.0,
                dtheta=0.0,
                dkappa=0.0,
                ds=zero,
                mu_target=mu_target,
            )

    with pytest.raises(NumericalStall):
        Frozen(program, SolverOptions(method="short", max_iter=50)).solve()


@pytest.mark.parametrize(
    "fail_at, expected", [(0, NotFinite), (2, NumericalStall)]
)
def test_not_finite_inside_an_iteration_reads_as_stall(
    monkeypatch, fail_at, expected
):
    # a non-finite normal solve after the first iteration is a stall of the
    # iterates; at iteration 0 it is bad input and propagates as it is
    program = build_program(offdiag_toy())
    normal = program.normal
    update, solve_h = normal.update, normal.solve_h
    iteration = [-1]

    def counting_update(*args):
        iteration[0] += 1
        update(*args)

    def failing_solve_h(rhs):
        if iteration[0] == fail_at:
            raise NotFinite("synthetic non-finite right-hand side")
        return solve_h(rhs)

    monkeypatch.setattr(normal, "update", counting_update)
    monkeypatch.setattr(normal, "solve_h", failing_solve_h)
    with pytest.raises(expected) as info:
        adaptive_step_solve(program, eps=1e-8, max_iter=100)
    assert iteration[0] == fail_at
    if expected is NumericalStall:
        assert isinstance(info.value.__cause__, NotFinite)


def every_segment_program():
    """A ``dctc-aux`` program whose cone has the second-order block,
    matrix segments of several orders and orthant slacks, with auxiliary
    chain rows from a constraint that spans several bags."""
    rng = np.random.default_rng(53)
    base, _ = random_partially_separable_problem(rng, 9, 3, ineq_prob=0.7)
    return DualizedHsdeProgram(
        dualize(separate_with_aux(with_wide_constraint(base)))
    )


def test_scaling_stacks_are_in_the_normal_engines_block_order():
    # normal_update hands ScalingPoint.psd_stacks and nn_w ** 2 to the
    # engine as they are, which is right only if the cone lists the matrix
    # and slack segments of the engine's blocks in block order
    program = every_segment_program()
    ctc = program.dualized.ctc
    order = ctc.order.tolist()
    assert ctc.n_aux.sum() > 0
    assert len(set(order)) > 1
    assert ctc.n_nn.any()
    ops = ConeOps(program.cone)
    # x's K2 coordinate 1 + f + k is paired with z coordinate nonaux[k]
    z_of = program.dualized.nonaux
    offset = 1 + program.dualized.f
    assert set(ops.psd_groups) == set(order)
    for o, idx in ops.psd_groups.items():
        want = np.stack([
            np.arange(lo, lo + tri(o))
            for lo, oj in zip(ctc.svec_start.tolist(), order)
            if oj == o
        ])
        assert np.array_equal(z_of[idx - offset], want)
    want_nn = np.concatenate([
        np.arange(lo, lo + k)
        for lo, k in zip(ctc.nn_start.tolist(), ctc.n_nn.tolist())
    ])
    assert np.array_equal(z_of[ops.nn_idx - offset], want_nn)


def test_cone_layer_matches_the_per_call_oracle(monkeypatch):
    # the gradient, both step lengths and the scaling stacks read from a
    # ScalingPoint equal, bit for bit, what decomposing the iterate afresh
    # on every call gives, at every iterate of an adaptive solve
    program = every_segment_program()
    ops = ConeOps(program.cone)
    assert ops.soc_slices and len(ops.psd_groups) > 1 and ops.nn_idx.size
    scaling_point, grad = ConeOps.scaling_point, ConeOps.grad
    max_step = ConeOps.max_step
    calls = {"scaling_point": 0, "grad": 0, "max_step": 0}

    def checked_scaling_point(self, x, s):
        w = scaling_point(self, x, s)
        want = oracle_psd_stacks(self, x, s)
        assert w.psd_stacks.keys() == want.keys()
        for o, stack in want.items():
            assert np.array_equal(w.psd_stacks[o], stack)
        calls["scaling_point"] += 1
        return w

    def checked_grad(self, w):
        g = grad(self, w)
        assert np.array_equal(g, oracle_grad(self, w.x))
        calls["grad"] += 1
        return g

    def checked_max_step(self, w, dx, ds):
        alpha = max_step(self, w, dx, ds)
        assert alpha == min(
            oracle_max_step(self, w.x, dx), oracle_max_step(self, w.s, ds)
        )
        calls["max_step"] += 1
        return alpha

    monkeypatch.setattr(ConeOps, "scaling_point", checked_scaling_point)
    monkeypatch.setattr(ConeOps, "grad", checked_grad)
    monkeypatch.setattr(ConeOps, "max_step", checked_max_step)
    result = adaptive_step_solve(program, eps=1e-8, max_iter=100)
    n = result.iterations
    assert n >= 5
    # the affine direction (mu_target = 0) skips the gradient
    assert calls == {"scaling_point": n, "grad": n, "max_step": 2 * n}


def path_maxcut(n):
    """MAXCUT on the path P_n: under dctc, one stack of n - 1 order-2
    bags."""
    return gen_maxcut(Graph(n, [(i, i + 1) for i in range(n - 1)]))


class CountingGufuncs:
    """Stand-in for ``linalg._umath_linalg`` that counts the eigen
    gufunc calls the closed forms leave to LAPACK."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(umath_linalg, name)


def test_cone_layer_matches_the_oracle_above_the_crossover(monkeypatch):
    # on a chain whose order-2 stack the closed forms take, every scaling
    # stack, gradient and step length equals, bit for bit, what
    # np.linalg's decompositions give at every iterate of an adaptive solve
    program = build_program(path_maxcut(CLOSED_FORM_MIN_STACK + 73))
    ops = ConeOps(program.cone)
    assert list(ops.psd_groups) == [2]
    assert len(ops.psd_groups[2]) >= CLOSED_FORM_MIN_STACK
    gufuncs = CountingGufuncs()
    monkeypatch.setattr(linalg, "_umath_linalg", gufuncs)
    scaling_point, grad = ConeOps.scaling_point, ConeOps.grad
    max_step = ConeOps.max_step
    checked = {"scaling_point": 0, "grad": 0, "max_step": 0}

    def checked_scaling_point(self, x, s):
        w = scaling_point(self, x, s)
        assert same_bits(w.psd_stacks[2], oracle_psd_stacks(self, x, s)[2])
        checked["scaling_point"] += 1
        return w

    def checked_grad(self, w):
        g = grad(self, w)
        assert same_bits(g, oracle_grad(self, w.x))
        checked["grad"] += 1
        return g

    def checked_max_step(self, w, dx, ds):
        alpha = max_step(self, w, dx, ds)
        assert same_bits(alpha, min(
            oracle_max_step(self, w.x, dx), oracle_max_step(self, w.s, ds)
        ))
        checked["max_step"] += 1
        return alpha

    monkeypatch.setattr(ConeOps, "scaling_point", checked_scaling_point)
    monkeypatch.setattr(ConeOps, "grad", checked_grad)
    monkeypatch.setattr(ConeOps, "max_step", checked_max_step)
    n = adaptive_step_solve(program, eps=1e-8, max_iter=100).iterations
    assert n >= 5
    assert checked == {"scaling_point": n, "grad": n, "max_step": 2 * n}
    assert gufuncs.calls == 0  # every decomposition took the closed forms


@pytest.mark.parametrize(
    "problem",
    [path_maxcut(CLOSED_FORM_MIN_STACK + 73),
     star_arrow_problem(CLOSED_FORM_MIN_STACK + 22)],
    ids=["chain", "star"],
)
def test_solves_are_the_same_without_the_closed_forms(monkeypatch, problem):
    # the closed forms move no float: y, the iteration count and L repeat
    # with them switched off
    gufuncs = CountingGufuncs()
    monkeypatch.setattr(linalg, "_umath_linalg", gufuncs)
    shipped = solve_sdp(problem, eps=1e-8)
    assert gufuncs.calls == 0  # one order-2 stack, above the crossover
    monkeypatch.setattr(linalg, "CLOSED_FORM_MIN_STACK", np.inf)
    plain = solve_sdp(problem, eps=1e-8)
    assert gufuncs.calls == 7 * plain.iterations
    assert same_bits(shipped.y, plain.y)
    assert shipped.iterations == plain.iterations
    assert same_bits(shipped.metrics.L, plain.metrics.L)


def test_closed_forms_keep_the_chaotic_trajectory(monkeypatch):
    # test_dense_program_matches_tree_program's problem sits on a chaotic
    # trajectory: a naive 2 x 2 closed form (half-trace +- radius) took
    # its tree solve from 14 to 21 iterations.  Forced onto its 3-matrix
    # order-2 stack, the LAPACK formulas repeat the gufuncs' solve exactly.
    rng = np.random.default_rng(51)
    problem = random_partially_separable_problem(rng, 7, 4, ineq_prob=0.4)[0]
    want = adaptive_step_solve(build_program(problem), eps=1e-9, max_iter=100)
    monkeypatch.setattr(linalg, "CLOSED_FORM_MIN_STACK", 1)
    got = adaptive_step_solve(build_program(problem), eps=1e-9, max_iter=100)
    assert got.iterations == want.iterations == 14
    for name in ("x", "y", "s"):
        assert same_bits(getattr(got.state, name), getattr(want.state, name))


def count_decompositions(monkeypatch):
    """Counter of the eigh and eigvalsh calls: numpy's LAPACK gufuncs as
    ``treesdp.ipm`` binds them, and ``np.linalg``'s wrappers (which call
    the gufuncs through their own module, so no call counts twice)."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for kind, owner, name in (
        ("eigh", ipm, "eigh_lo"),
        ("eigh", np.linalg, "eigh"),
        ("eigvalsh", ipm, "eigvalsh_lo"),
        ("eigvalsh", np.linalg, "eigvalsh"),
    ):
        def counted(*args, _fn=getattr(owner, name), _kind=kind, **kw):
            counts[_kind] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("method", ["adaptive", "short"])
def test_each_iterate_is_decomposed_once(monkeypatch, method):
    # per iteration and order group: one eigh each of S, X and
    # S^1/2 X S^1/2, and one eigvalsh per step length for x and for s
    rng = np.random.default_rng(53)
    problem = random_partially_separable_problem(rng, 9, 3, ineq_prob=0.7)[0]
    program = build_program(problem)
    groups = len(ConeOps(program.cone).psd_groups)
    assert groups > 1
    counts = count_decompositions(monkeypatch)
    if method == "adaptive":
        n = adaptive_step_solve(program, eps=1e-8, max_iter=100).iterations
        assert n >= 5
        assert counts == {"eigh": 3 * n * groups, "eigvalsh": 4 * n * groups}
    else:
        n = 5
        with pytest.raises(MaxIterations):
            short_step_solve(program, eps=1e-12, max_iter=n)
        assert counts == {"eigh": 3 * n * groups, "eigvalsh": 0}


def test_indefinite_pivot_converts_to_singular_normal_matrix():
    program = build_program(offdiag_toy())

    class Broken:
        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def normal_update(self, ops, w):
            raise IndefinitePivot("synthetic breakdown")

    with pytest.raises(SingularNormalMatrix):
        HsdeSolver(Broken(program), SolverOptions(method="short")).solve()


def test_determinant_floor_raises(monkeypatch):
    program = build_program(offdiag_toy())
    monkeypatch.setattr("treesdp.ipm.DET_FLOOR", np.inf)
    with pytest.raises(SingularNormalMatrix):
        short_step_solve(program, eps=1e-9, max_iter=10)


# ---------------------------------------------------------------------------
# dense-operator program (reference path)
# ---------------------------------------------------------------------------


def test_dense_program_matches_tree_program():
    rng = np.random.default_rng(51)
    problem = random_partially_separable_problem(rng, 7, 4, ineq_prob=0.4)[0]
    tree_prog = build_program(problem)
    m_dense = tree_prog.apply_m(np.eye(tree_prog.dim_x)).T
    dense_prog = DenseHsdeProgram(
        m_dense, tree_prog.b, tree_prog.c, tree_prog.cone
    )
    res_tree = adaptive_step_solve(tree_prog, eps=1e-9, max_iter=100)
    res_dense = adaptive_step_solve(dense_prog, eps=1e-9, max_iter=100)
    obj_tree = float(tree_prog.dualized.ctc.c_z @ tree_prog.dualized.ctc_primal(
        res_tree.state.y, res_tree.state.tau
    ))
    obj_dense = float(
        tree_prog.dualized.ctc.c_z
        @ tree_prog.dualized.ctc_primal(
            res_dense.state.y, res_dense.state.tau
        )
    )
    assert obj_tree == pytest.approx(obj_dense, abs=1e-6)
    # round-off differs between the two normal-solve backends, so the
    # adaptive trajectories may separate by an iteration
    assert abs(res_tree.iterations - res_dense.iterations) <= 1
