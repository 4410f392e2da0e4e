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
import pytest

from treesdp.chordal import decompose, sparsity_graph
from treesdp.convert import ConeSpec, build_ctc, dualize, separate_with_aux
from treesdp.errors import (
    IndefinitePivot,
    InfeasibleOrUnbounded,
    MaxIterations,
    NotFinite,
    NotInterior,
    NumericalStall,
    SingularNormalMatrix,
)
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
from treesdp.linalg import smat

from util import (
    SparseSymmetric,
    check_interior,
    hess_apply,
    make_problem,
    oracle_grad,
    oracle_max_step,
    oracle_psd_stacks,
    random_partially_separable_problem,
    with_wide_constraint,
)

COMPOSITE = ConeSpec(
    segments=(
        ("soc", 3),
        ("psd", 3),
        ("psd", 2),
        ("psd", 3),
        ("nonneg", 4),
    )
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
    bound = 1e-8 * (1.0 + program.data_norm())
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


def test_scaling_point_psd_example():
    # X = 4 I, S = I on one psd(3) segment: W = 2 I
    ops = ConeOps(ConeSpec(segments=(("psd", 3),)))
    x = ops.identity() * 4.0
    s = ops.identity()
    w = ops.scaling_point(x, s)
    assert np.allclose(w.psd_stacks[3][0], 2.0 * np.eye(3), atol=1e-12)


def test_scaling_point_soc_identity_fixpoint():
    ops = ConeOps(ConeSpec(segments=(("soc", 4),)))
    e = ops.identity()
    w = ops.scaling_point(e, e)
    assert np.allclose(w.soc[0].w, e, atol=1e-12)


def test_scaling_point_rejects_boundary():
    ops = ConeOps(COMPOSITE)
    rng = np.random.default_rng(15)
    x = make_interior(ops, rng)
    s = make_interior(ops, rng)
    bad = s.copy()
    # break the first psd segment: make it indefinite
    sl = None
    for kind, size, seg in COMPOSITE.slices():
        if kind == "psd":
            sl = seg
            break
    bad[sl.start] = -5.0
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
    ops = ConeOps(ConeSpec(segments=(("nonneg", 3),)))
    z = np.array([1.0, 2.0, 3.0])
    dz = np.array([-2.0, 1.0, -1.0])
    assert step_of_x(ops, z, dz) == pytest.approx(0.5)
    assert step_of_x(ops, z, np.ones(3)) == np.inf

    ops = ConeOps(ConeSpec(segments=(("psd", 2),)))
    x = ops.identity()
    d = -2.0 * ops.identity()
    assert step_of_x(ops, x, d) == pytest.approx(0.5)


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
    bound = 1e-13 * (1.0 + program.data_norm())
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
    bound = 1e-8 * (1.0 + program.data_norm())
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
    opts = SolverOptions(
        method="adaptive", eps=1e-8, max_iter=150, collect_diagnostics=True
    )
    result = HsdeSolver(program, opts).solve()
    assert result.state.mu <= 1e-8
    assert_feasibility_kept(program, result)
    assert result.time_per_iter_s > 0.0
    for rec in result.records:
        assert rec.pattern is not None
        assert rec.pattern["fill_blocks"] == 0
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
    blocks = program.normal.blocks
    assert program.dualized.ctc.aux_plan.n_aux > 0
    assert len({blk.order for blk in blocks}) > 1
    assert any(blk.n_nn for blk in blocks)
    ops = ConeOps(program.cone)
    # x's K2 coordinate 1 + f + k is paired with z coordinate nonaux[k]
    z_of = program.dualized.nonaux
    offset = 1 + program.dualized.f
    assert set(ops.psd_groups) == {blk.order for blk in blocks}
    for o, idx in ops.psd_groups.items():
        want = np.stack([
            np.arange(blk.svec_start, blk.svec_start + blk.svec_len)
            for blk in blocks
            if blk.order == o
        ])
        assert np.array_equal(z_of[idx - offset], want)
    want_nn = np.concatenate(
        [np.arange(blk.nn_start, blk.end) for blk in blocks]
    )
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


def count_linalg_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kw):
            counts[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
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
    counts = count_linalg_calls(monkeypatch, ("eigh", "eigvalsh"))
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
