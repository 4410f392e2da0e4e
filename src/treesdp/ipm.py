"""Homogeneous self-dual embedding with Nesterov-Todd scaling.

The solver embeds a conic program

    min <c, x>  s.t.  M x = b,  x in K

into a self-dual system over (x, y, tau, theta, kappa, s) whose unique
starting point x = s = identity, y = 0, tau = theta = kappa = 1 is
exactly feasible and perfectly centered.  Every Newton step preserves
the linear feasibility identities

    M^T y - c tau - r_d theta + s       = 0
    -M x  + b tau - r_p theta           = 0
    c^T x - b^T y - r_c theta + kappa   = 0
    r_d^T x + r_p^T y + r_c tau         = nu + 1

with the constant residual vectors r_d = e - c, r_p = b - M e,
r_c = 1 + c^T e fixed at initialization.  Directions come from a
Nesterov-Todd scaled linearization of the centrality conditions,
reduced to one normal-matrix solve with three right-hand sides plus a
2x2 system in (dtau, dtheta).

Two step rules are provided: a short-step rule contracting the
complementarity measure mu by exactly 1 - 1/(15 sqrt(nu+1)) per
iteration, and an adaptive predictor rule with Mehrotra-style centering
sigma in [0.05, 0.9] and a 0.99 fraction-to-boundary line search.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .convert import ConeSpec, DualizedProblem
from .errors import (
    DimensionMismatch,
    IndefinitePivot,
    InfeasibleOrUnbounded,
    MaxIterations,
    NotFinite,
    NotInterior,
    NumericalStall,
    SingularNormalMatrix,
)
from .linalg import smat_stack, svec_stack
from .normal import DenseNormalSystem, TreeNormalSystem

DET_FLOOR = 1e-14
TAU_FLOOR = 1e-10
KAPPA_AWAY = 1e-6
GUARD_GAMMA = 0.9
STALL_LIMIT = 5
BOUNDARY_FRACTION = 0.99
SIGMA_MIN, SIGMA_MAX = 0.05, 0.9


@dataclass
class SolverOptions:
    method: str = "adaptive"  # "short" | "adaptive"
    eps: float = 1e-8
    max_iter: int = 200
    collect_diagnostics: bool = False

    def __post_init__(self):
        if self.method not in ("short", "adaptive"):
            raise ValueError(f"unknown method {self.method!r}")


# ---------------------------------------------------------------------------
# cone operations
# ---------------------------------------------------------------------------


@dataclass
class SocScaling:
    sl: slice
    w: np.ndarray
    g2: float  # w_0^2 - |w_1|^2


@dataclass
class ScalingPoint:
    """Nesterov-Todd scaling point w with ∇²F(w) x = s, and the spectral
    data of the iterate (x, s) it was computed at.

    ``ConeOps.scaling_point`` decomposes each matrix segment of x and of s
    once (one ``eigh`` each, plus one of S^½ X S^½ for W) and keeps X⁻¹,
    X^-½ and S^-½ here, so that ``grad`` and both ``max_step`` calls of an
    iteration read them instead of decomposing the same iterate again.
    The solver makes one per iteration and drops it when the step is
    taken: only the current iterate's decompositions are held.
    """

    soc: list
    psd_stacks: dict  # order -> W stack, matrix segments in cone order
    nn_w: np.ndarray  # concatenated over all nonneg coordinates
    x: np.ndarray  # the iterate (x, s) that w scales
    s: np.ndarray
    x_inv: dict  # order -> X⁻¹ stack, the matrix part of -∇F(x)
    x_ihalf: dict  # order -> X^-½ stack
    s_ihalf: dict  # order -> S^-½ stack


def _soc_g2(v: np.ndarray) -> float:
    return float(v[0] * v[0] - v[1:] @ v[1:])


_CONGRUENCE = "gij,gkjl,glm->gkim"  # W M W for each group g and column k


@functools.lru_cache(maxsize=64)
def _congruence_path(w_shape: tuple, m_shape: tuple) -> tuple:
    """The contraction path ``optimize=True`` would search for on every
    call, found once per pair of operand shapes."""
    w, m = np.broadcast_to(0.0, w_shape), np.broadcast_to(0.0, m_shape)
    return tuple(np.einsum_path(_CONGRUENCE, w, m, w, optimize="greedy")[0])


class ConeOps:
    """Barrier calculus over a ConeSpec (soc x psd... x nonneg...).

    The second-order cone uses F = -1/2 log(x_0^2 - |x_1|^2) with identity
    (1, 0, ...), contributing 1 to the barrier parameter nu; PSD and
    nonnegative segments use -log det X and -log x.

    In a solve, ``scaling_point`` is the only method that decomposes the
    iterate: per order group one ``eigh`` of S, of X and of S^½ X S^½.  ``grad`` and
    ``max_step`` take the ``ScalingPoint`` and read the inverse (square
    roots) it holds; each step length adds one ``eigvalsh`` per order
    group for x and one for s.  The same iterate is thus never factored
    twice, and every value equals the one a fresh ``eigh`` would give.
    """

    def __init__(self, spec: ConeSpec):
        self.spec = spec
        self.dim = spec.dim
        self.soc_slices = []
        # order -> coord index matrix (g, t), one row per matrix segment in
        # cone order
        self.psd_groups = {}
        nn_idx = []
        psd_group_lists = {}
        for kind, size, sl in spec.slices():
            if kind == "soc":
                self.soc_slices.append(sl)
            elif kind == "psd":
                coords = np.arange(sl.start, sl.stop, dtype=np.int64)
                psd_group_lists.setdefault(size, []).append(coords)
            elif kind == "nonneg":
                nn_idx.append(np.arange(sl.start, sl.stop, dtype=np.int64))
            elif kind == "free":
                raise DimensionMismatch(
                    "free segments cannot appear in a barrier cone"
                )
        for order, lists in psd_group_lists.items():
            self.psd_groups[order] = np.stack(lists)
        self.nn_idx = (
            np.concatenate(nn_idx)
            if nn_idx
            else np.zeros(0, dtype=np.int64)
        )
        self.nu = float(spec.nu())

    # -- helpers ----------------------------------------------------------
    def _cols(self, v):
        v = np.asarray(v, dtype=float)
        single = v.ndim == 1
        return (v.reshape(-1, 1) if single else v), single

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        for sl in self.soc_slices:
            e[sl.start] = 1.0
        for order, idx in self.psd_groups.items():
            diag_pos = np.array(
                [r * (r + 1) // 2 + r for r in range(order)], dtype=np.int64
            )
            e[idx[:, diag_pos]] = 1.0
        e[self.nn_idx] = 1.0
        return e

    @staticmethod
    def _spectral(vecs: np.ndarray, f: np.ndarray) -> np.ndarray:
        """V diag(f) V^T for each matrix of a stack of eigenvector columns
        ``vecs`` (g, o, o) and spectral values ``f`` (g, o)."""
        return (vecs * f[:, None, :]) @ np.swapaxes(vecs, 1, 2)

    def grad(self, w: ScalingPoint) -> np.ndarray:
        """Barrier gradient ∇F(x) at the iterate x that w scales."""
        z = w.x
        g = np.zeros_like(z)
        for sl in self.soc_slices:
            v = z[sl]
            g2 = _soc_g2(v)
            jv = v.copy()
            jv[1:] = -jv[1:]
            g[sl] = -jv / g2
        for order, idx in self.psd_groups.items():
            g[idx] = -svec_stack(w.x_inv[order])
        if self.nn_idx.size:
            g[self.nn_idx] = -1.0 / z[self.nn_idx]
        return g

    # -- scaling point ------------------------------------------------------
    def scaling_point(self, x: np.ndarray, s: np.ndarray) -> ScalingPoint:
        """w with ∇²F(w) x = s; raises NotInterior outside int K x int K."""
        soc = []
        for sl in self.soc_slices:
            xv, sv = x[sl], s[sl]
            gx, gs = _soc_g2(xv), _soc_g2(sv)
            if xv[0] <= 0.0 or gx <= 0.0:
                raise NotInterior("second-order x segment not interior")
            if sv[0] <= 0.0 or gs <= 0.0:
                raise NotInterior("second-order s segment not interior")
            gamma = float(np.sqrt(gx / gs))
            big_t = float(sv @ xv + np.sqrt(gx * gs))
            jsv = sv.copy()
            jsv[1:] = -jsv[1:]
            w = (xv + gamma * jsv) / np.sqrt(2.0 * big_t)
            soc.append(SocScaling(sl=sl, w=w, g2=_soc_g2(w)))
        psd_stacks, x_inv, x_ihalf, s_ihalf = {}, {}, {}, {}
        for order, idx in self.psd_groups.items():
            xm = smat_stack(x[idx])
            sm = smat_stack(s[idx])
            svals, svecs = np.linalg.eigh(sm)
            if np.min(svals) <= 0.0:
                raise NotInterior(
                    f"order-{order} s segment not positive definite"
                )
            xvals, xvecs = np.linalg.eigh(xm)
            if np.min(xvals) <= 0.0:
                raise NotInterior(
                    f"order-{order} x segment not positive definite"
                )
            x_inv[order] = self._spectral(xvecs, 1.0 / xvals)
            x_ihalf[order] = self._spectral(xvecs, 1.0 / np.sqrt(xvals))
            s_half = self._spectral(svecs, np.sqrt(svals))
            s_ihalf[order] = self._spectral(svecs, 1.0 / np.sqrt(svals))
            a = s_half @ xm @ s_half
            a = 0.5 * (a + np.swapaxes(a, 1, 2))
            avals, avecs = np.linalg.eigh(a)
            if np.min(avals) <= 0.0:
                raise NotInterior(
                    f"order-{order} x segment not positive definite"
                )
            a_half = self._spectral(avecs, np.sqrt(avals))
            w_stack = s_ihalf[order] @ a_half @ s_ihalf[order]
            psd_stacks[order] = 0.5 * (w_stack + np.swapaxes(w_stack, 1, 2))
        if self.nn_idx.size:
            xn, sn = x[self.nn_idx], s[self.nn_idx]
            if np.min(xn) <= 0.0 or np.min(sn) <= 0.0:
                raise NotInterior("slack coordinates not interior")
            nn_w = np.sqrt(xn / sn)
        else:
            nn_w = np.zeros(0)
        return ScalingPoint(
            soc=soc, psd_stacks=psd_stacks, nn_w=nn_w, x=x, s=s,
            x_inv=x_inv, x_ihalf=x_ihalf, s_ihalf=s_ihalf,
        )

    # -- inverse Hessian action at the scaling point ------------------------
    def hess_inv_apply(self, w: ScalingPoint, v):
        """(∇²F(w))^{-1} v for a vector or a (dim, k) column batch."""
        cols, single = self._cols(v)
        out = np.zeros_like(cols)
        for sc in w.soc:
            vv = cols[sc.sl]
            jv = vv.copy()
            jv[1:] = -jv[1:]
            coef = sc.w @ vv
            out[sc.sl] = 2.0 * sc.w[:, None] * coef[None, :] - sc.g2 * jv
        for order, idx in self.psd_groups.items():
            w_stack = w.psd_stacks[order]
            k = cols.shape[1]
            vecs = cols[idx]
            mats = smat_stack(
                np.moveaxis(vecs, 2, 1).reshape(-1, vecs.shape[1])
            ).reshape(vecs.shape[0], k, order, order)
            res = np.einsum(
                _CONGRUENCE, w_stack, mats, w_stack,
                optimize=_congruence_path(w_stack.shape, mats.shape),
            )
            flat = svec_stack(res.reshape(-1, order, order)).reshape(
                vecs.shape[0], k, -1
            )
            out[idx] = np.moveaxis(flat, 1, 2)
        if self.nn_idx.size:
            out[self.nn_idx] = cols[self.nn_idx] * (w.nn_w ** 2)[:, None]
        return out[:, 0] if single else out

    # -- boundary distance ---------------------------------------------------
    def max_step(
        self, w: ScalingPoint, dx: np.ndarray, ds: np.ndarray
    ) -> float:
        """sup {alpha : x + alpha dx and s + alpha ds interior} (inf if
        unbounded) at the iterate (x, s) that w scales."""
        alpha = np.inf
        for z, dz, ihalf in ((w.x, dx, w.x_ihalf), (w.s, ds, w.s_ihalf)):
            for sl in self.soc_slices:
                v, d = z[sl], dz[sl]
                a = _soc_g2(d)
                jd = d.copy()
                jd[1:] = -jd[1:]
                b = 2.0 * float(v @ jd)
                c = _soc_g2(v)
                alpha = min(alpha, _positive_quadratic_root(a, b, c))
            for order, idx in self.psd_groups.items():
                dm = smat_stack(dz[idx])
                c = ihalf[order] @ dm @ ihalf[order]
                c = 0.5 * (c + np.swapaxes(c, 1, 2))
                lam_min = float(np.min(np.linalg.eigvalsh(c)))
                if lam_min < 0.0:
                    alpha = min(alpha, -1.0 / lam_min)
            if self.nn_idx.size:
                v, d = z[self.nn_idx], dz[self.nn_idx]
                neg = d < 0.0
                if np.any(neg):
                    alpha = min(alpha, float(np.min(-v[neg] / d[neg])))
        return alpha


def _positive_quadratic_root(a: float, b: float, c: float) -> float:
    """Smallest alpha > 0 with a alpha^2 + b alpha + c = 0 (inf if none).

    Starting value c > 0 (interior); the path leaves the cone where the
    quadratic first vanishes.
    """
    if abs(a) < 1e-300:
        if b >= 0.0:
            return np.inf
        return -c / b
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return np.inf
    sq = float(np.sqrt(disc))
    roots = sorted(((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)))
    for r in roots:
        if r > 0.0:
            return float(r)
    return np.inf


# ---------------------------------------------------------------------------
# embedded programs
# ---------------------------------------------------------------------------


class DualizedHsdeProgram:
    """Embedding data for a dualized block-tree problem.

    x lives in SOC(1+f) x K2; y in the block coordinate space; the
    normal matrix is solved by the tree-structured engine with the
    rank-1 update from the second-order-cone scaling.
    """

    def __init__(self, dualized: DualizedProblem):
        self.dualized = dualized
        self.cone = dualized.cone_x
        self.b = dualized.b_t.astype(float)
        self.c = dualized.c_t()
        self.normal = TreeNormalSystem(dualized)

    @property
    def dim_x(self) -> int:
        return self.dualized.dim_x

    @property
    def dim_y(self) -> int:
        return self.dualized.dim_y

    def apply_m(self, rows: np.ndarray) -> np.ndarray:
        return self.dualized.apply_m(rows)

    def apply_mt(self, rows: np.ndarray) -> np.ndarray:
        return self.dualized.apply_mt(rows)

    def data_norm(self) -> float:
        return self.dualized.data_norm()

    def normal_update(self, ops: ConeOps, w: ScalingPoint) -> None:
        # the cone lists each block's matrix and slack segments in block
        # order, so the scaling stacks are already in the engine's format
        sc = w.soc[0]
        q_z = self.dualized.g_csr.T.dot(np.sqrt(2.0) * sc.w[1:])
        self.normal.update(sc.g2, q_z, w.psd_stacks, w.nn_w ** 2)

    def normal_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.normal.solve_with_rank1(rhs)

    def pattern_stats(self) -> dict:
        return self.normal.pattern_stats()


class DenseHsdeProgram:
    """Embedding data for an explicit dense-operator conic program."""

    def __init__(self, m_dense, b, c, cone: ConeSpec):
        self.m = np.asarray(m_dense, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.cone = cone
        if self.m.shape != (self.b.size, self.c.size):
            raise DimensionMismatch(
                f"operator shape {self.m.shape} does not match "
                f"b ({self.b.size}) and c ({self.c.size})"
            )
        self.normal = DenseNormalSystem(self.m)

    @property
    def dim_x(self) -> int:
        return self.c.size

    @property
    def dim_y(self) -> int:
        return self.b.size

    def apply_m(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.m.T

    def apply_mt(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.m

    def data_norm(self) -> float:
        return float(
            np.sqrt(
                np.linalg.norm(self.m) ** 2
                + self.b @ self.b
                + self.c @ self.c
            )
        )

    def normal_update(self, ops: ConeOps, w: ScalingPoint) -> None:
        self.normal.update(lambda cols: ops.hess_inv_apply(w, cols))

    def normal_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.normal.solve(rhs)

    def pattern_stats(self) -> dict:
        """The block-tree engine's keys for one dense block."""
        return {
            "blocks": 1,
            "groups": 1,
            "offdiag_blocks": 0,
            "factor_offdiag_blocks": 0,
            "fill_blocks": 0,
            "flops_estimate": self.normal.dim ** 3 // 3,
            "bytes": self.normal.memory_bytes(),
        }


# ---------------------------------------------------------------------------
# embedding state and directions
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingState:
    x: np.ndarray
    y: np.ndarray
    tau: float
    theta: float
    kappa: float
    s: np.ndarray
    mu: float
    iteration: int = 0


@dataclass
class Step:
    dx: np.ndarray
    dy: np.ndarray
    dtau: float
    dtheta: float
    dkappa: float
    ds: np.ndarray
    mu_target: float
    reusable: tuple = None


@dataclass
class IterationRecord:
    iteration: int
    mu: float
    tau: float
    kappa: float
    theta: float
    alpha: float
    sigma: float
    feas_residual: float
    wall_s: float
    guard: float
    pattern: dict = None


@dataclass
class SolveResult:
    state: EmbeddingState
    status: str  # "optimal" | "guard_violated"
    iterations: int
    records: list
    nu: float
    eps: float
    guard_min: float
    feas_residual_max: float

    @property
    def time_per_iter_s(self) -> float:
        """Median wall time of one iteration (0.0 before the first)."""
        if not self.records:
            return 0.0
        return float(np.median([r.wall_s for r in self.records]))


class HsdeSolver:
    """Drives the embedding for one program (one solve per instance)."""

    def __init__(self, program, options: SolverOptions = None):
        self.program = program
        self.options = options or SolverOptions()
        self.ops = ConeOps(program.cone)
        self.c = np.asarray(program.c, dtype=float)
        self.b = np.asarray(program.b, dtype=float)
        e = self.ops.identity()
        self.e = e
        self.r_d = e - self.c
        self.r_p = self.b - program.apply_m(e)
        self.r_c = 1.0 + float(self.c @ e)
        self.nu = self.ops.nu
        self._data_norm = program.data_norm()

    # -- state ------------------------------------------------------------
    def init_embedding(self) -> EmbeddingState:
        e = self.e
        x = e.copy()
        s = e.copy()
        y = np.zeros(self.program.dim_y)
        tau = theta = kappa = 1.0
        mu = (float(x @ s) + tau * kappa) / (self.nu + 1.0)
        return EmbeddingState(
            x=x, y=y, tau=tau, theta=theta, kappa=kappa, s=s, mu=mu
        )

    def feasibility_residual(self, st: EmbeddingState) -> float:
        """Max norm of the four embedding identities (should stay ~0)."""
        p = self.program
        r1 = (
            p.apply_mt(st.y)
            - self.c * st.tau
            - self.r_d * st.theta
            + st.s
        )
        r2 = -p.apply_m(st.x) + self.b * st.tau - self.r_p * st.theta
        r3 = (
            float(self.c @ st.x)
            - float(self.b @ st.y)
            - self.r_c * st.theta
            + st.kappa
        )
        r4 = (
            float(self.r_d @ st.x)
            + float(self.r_p @ st.y)
            + self.r_c * st.tau
            - (self.nu + 1.0)
        )
        return max(
            float(np.linalg.norm(r1)),
            float(np.linalg.norm(r2)),
            abs(r3),
            abs(r4),
        )

    def mu_of(self, st: EmbeddingState) -> float:
        return (float(st.x @ st.s) + st.tau * st.kappa) / (self.nu + 1.0)

    # -- Newton direction ---------------------------------------------------
    def nt_direction(
        self,
        st: EmbeddingState,
        w: ScalingPoint,
        mu_target: float,
        reuse: tuple = None,
    ) -> Step:
        """NT direction toward the mu_target center.

        One batched normal solve with three right-hand sides (or a
        single-column solve when v2, v3, u2, u3 are reused from a
        previous direction at the same scaling point), then the 2x2
        (dtau, dtheta) system and the back-substitutions.
        """
        ops = self.ops
        p = self.program
        d = -st.s
        if mu_target:  # the affine direction has no barrier term
            d = d - mu_target * ops.grad(w)
        d0 = -st.kappa + mu_target / st.tau
        big_d0 = st.kappa / st.tau
        if reuse is None:
            dinv = ops.hess_inv_apply(
                w, np.column_stack([d, self.c, self.r_d])
            )
            md = p.apply_m(dinv.T)  # rows: M D^-1 d, M D^-1 c, M D^-1 r_d
            rhs = np.column_stack(
                [-md[0], md[1] + self.b, md[2] - self.r_p]
            )
            v = p.normal_solve(rhs)
            mtv = p.apply_mt(v.T)  # rows: M^T v1, M^T v2, M^T v3
            u = ops.hess_inv_apply(w, mtv.T)
            u1 = u[:, 0] + dinv[:, 0]
            u2 = u[:, 1] - dinv[:, 1]
            u3 = u[:, 2] - dinv[:, 2]
            v1, v2, v3 = v[:, 0], v[:, 1], v[:, 2]
        else:
            v2, v3, u2, u3 = reuse
            dinv_d = ops.hess_inv_apply(w, d)
            v1 = p.normal_solve(-p.apply_m(dinv_d))
            u1 = ops.hess_inv_apply(w, p.apply_mt(v1)) + dinv_d
        a11 = float(self.c @ u2) - float(self.b @ v2) - big_d0
        a12 = float(self.c @ u3) - float(self.b @ v3) - self.r_c
        a21 = float(self.r_d @ u2) + float(self.r_p @ v2) + self.r_c
        a22 = float(self.r_d @ u3) + float(self.r_p @ v3)
        rhs1 = -d0 - float(self.c @ u1) + float(self.b @ v1)
        rhs2 = -float(self.r_d @ u1) - float(self.r_p @ v1)
        det = a11 * a22 - a12 * a21
        if abs(det) <= DET_FLOOR:
            raise SingularNormalMatrix(
                f"2x2 (dtau, dtheta) system has determinant {det:.3e}"
            )
        dtau = (rhs1 * a22 - a12 * rhs2) / det
        dtheta = (a11 * rhs2 - a21 * rhs1) / det
        dy = v1 + dtau * v2 + dtheta * v3
        dx = u1 + dtau * u2 + dtheta * u3
        # back out ds and dkappa from the linear feasibility rows rather
        # than the centrality rows: evaluated this way they keep the
        # embedding identities exact regardless of how ill-conditioned
        # the scaled Hessian has become near the solution, while the
        # equivalent centrality residual is re-absorbed by later steps
        ds = -p.apply_mt(dy) + self.c * dtau + self.r_d * dtheta
        dkappa = (
            -float(self.c @ dx) + float(self.b @ dy) + self.r_c * dtheta
        )
        return Step(
            dx=dx,
            dy=dy,
            dtau=float(dtau),
            dtheta=float(dtheta),
            dkappa=float(dkappa),
            ds=ds,
            mu_target=mu_target,
            reusable=(v2, v3, u2, u3),
        )

    def max_step(
        self, st: EmbeddingState, w: ScalingPoint, step: Step
    ) -> float:
        alpha = self.ops.max_step(w, step.dx, step.ds)
        if step.dtau < 0.0:
            alpha = min(alpha, -st.tau / step.dtau)
        if step.dkappa < 0.0:
            alpha = min(alpha, -st.kappa / step.dkappa)
        return alpha

    def apply_step(
        self, st: EmbeddingState, step: Step, alpha: float
    ) -> EmbeddingState:
        new = EmbeddingState(
            x=st.x + alpha * step.dx,
            y=st.y + alpha * step.dy,
            tau=st.tau + alpha * step.dtau,
            theta=st.theta + alpha * step.dtheta,
            kappa=st.kappa + alpha * step.dkappa,
            s=st.s + alpha * step.ds,
            mu=0.0,
            iteration=st.iteration + 1,
        )
        new.mu = self.mu_of(new)
        return new

    # -- main loop ----------------------------------------------------------
    def solve(self) -> SolveResult:
        # the block-tree engine's BLAS calls are per block or
        # vector-length; a dense normal matrix keeps the process's threads
        if isinstance(self.program, DualizedHsdeProgram):
            with one_blas_thread():
                return self._iterate()
        return self._iterate()

    def _iterate(self) -> SolveResult:
        opts = self.options
        st = self.init_embedding()
        records = []
        guard_min = np.inf
        feas_max = self.feasibility_residual(st)
        stall = 0
        short = opts.method == "short"
        contraction = 1.0 - 1.0 / (15.0 * np.sqrt(self.nu + 1.0))
        for it in range(opts.max_iter):
            if st.mu <= opts.eps:
                return self._finish(st, records, guard_min, feas_max)
            if st.tau < TAU_FLOOR and st.kappa > KAPPA_AWAY:
                raise InfeasibleOrUnbounded(
                    f"tau = {st.tau:.3e} collapsed with kappa = "
                    f"{st.kappa:.3e}; the embedding certifies primal or "
                    "dual infeasibility",
                    certificate={
                        "x": st.x / max(st.kappa, np.finfo(float).tiny),
                        "y": st.y / max(st.kappa, np.finfo(float).tiny),
                        "tau": st.tau,
                        "kappa": st.kappa,
                    },
                )
            t0 = time.perf_counter()
            try:
                w = self.ops.scaling_point(st.x, st.s)
                try:
                    self.program.normal_update(self.ops, w)
                except IndefinitePivot as exc:
                    raise SingularNormalMatrix(
                        f"normal factorization broke down: {exc}"
                    ) from exc
                if short:
                    mu_target = contraction * st.mu
                    step = self.nt_direction(st, w, mu_target)
                    alpha = 1.0
                    sigma = contraction
                else:
                    affine = self.nt_direction(st, w, 0.0)
                    alpha_aff = min(1.0, self.max_step(st, w, affine))
                    probe = self.apply_step(st, affine, alpha_aff)
                    mu_aff = max(self.mu_of(probe), 0.0)
                    sigma = float(
                        np.clip((mu_aff / st.mu) ** 3, SIGMA_MIN, SIGMA_MAX)
                    )
                    step = self.nt_direction(
                        st, w, sigma * st.mu, reuse=affine.reusable
                    )
                    alpha = min(
                        1.0, BOUNDARY_FRACTION * self.max_step(st, w, step)
                    )
            except (NotInterior, NotFinite, np.linalg.LinAlgError) as exc:
                if st.iteration == 0:
                    raise
                raise NumericalStall(
                    f"iterate reached the cone boundary at mu = "
                    f"{st.mu:.3e} after {st.iteration} iterations; the "
                    f"requested tolerance eps = {opts.eps:.1e} is below "
                    "what this instance supports in floating point"
                ) from exc
            mu_before = st.mu
            st = self.apply_step(st, step, alpha)
            wall = time.perf_counter() - t0
            feas = self.feasibility_residual(st)
            feas_max = max(feas_max, feas)
            guard = st.tau * st.kappa / st.mu if st.mu > 0 else np.inf
            guard_min = min(guard_min, guard)
            records.append(
                IterationRecord(
                    iteration=st.iteration,
                    mu=st.mu,
                    tau=st.tau,
                    kappa=st.kappa,
                    theta=st.theta,
                    alpha=alpha,
                    sigma=sigma,
                    feas_residual=feas,
                    wall_s=wall,
                    guard=guard,
                    pattern=(
                        self.program.pattern_stats()
                        if opts.collect_diagnostics
                        else None
                    ),
                )
            )
            if st.mu >= mu_before:
                stall += 1
                if stall >= STALL_LIMIT:
                    raise NumericalStall(
                        f"mu has not decreased for {STALL_LIMIT} "
                        f"consecutive iterations (mu = {st.mu:.3e})"
                    )
            else:
                stall = 0
        if st.mu <= opts.eps:
            return self._finish(st, records, guard_min, feas_max)
        raise MaxIterations(
            f"mu = {st.mu:.3e} > eps = {opts.eps:.3e} after "
            f"{opts.max_iter} iterations"
        )

    def _finish(self, st, records, guard_min, feas_max) -> SolveResult:
        if st.kappa > KAPPA_AWAY and st.tau < 1e-3 * st.kappa:
            # mu reached eps along the tau -> 0 branch of the embedding:
            # kappa stays bounded away from zero, so the limit certifies
            # infeasibility rather than optimality.
            raise InfeasibleOrUnbounded(
                f"mu converged with tau = {st.tau:.3e} vanishing against "
                f"kappa = {st.kappa:.3e}; the embedding certifies primal "
                "or dual infeasibility",
                certificate={
                    "x": st.x / max(st.kappa, np.finfo(float).tiny),
                    "y": st.y / max(st.kappa, np.finfo(float).tiny),
                    "tau": st.tau,
                    "kappa": st.kappa,
                },
            )
        guard_ok = st.tau * st.kappa >= GUARD_GAMMA * st.mu
        return SolveResult(
            state=st,
            status="optimal" if guard_ok else "guard_violated",
            iterations=st.iteration,
            records=records,
            nu=self.nu,
            eps=self.options.eps,
            guard_min=guard_min,
            feas_residual_max=feas_max,
        )


def short_step_solve(program, eps=1e-8, max_iter=5000, **kw) -> SolveResult:
    opts = SolverOptions(method="short", eps=eps, max_iter=max_iter, **kw)
    return HsdeSolver(program, opts).solve()


def adaptive_step_solve(program, eps=1e-8, max_iter=200, **kw) -> SolveResult:
    opts = SolverOptions(method="adaptive", eps=eps, max_iter=max_iter, **kw)
    return HsdeSolver(program, opts).solve()
