"""Problem generators, SDPA sparse-format I/O, the dense reference solver,
and the end-to-end solve driver.

Generators build standard-form minimization problems; for the cut
relaxations and the theta problem the quantity of interest is the
*negated* optimal value (the solver minimizes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chordal import Graph, decompose, parse_edge_list, sparsity_graph
from .convert import (
    ConeSpec,
    ConvertedProblem,
    build_ctc,
    dualize,
    separate_with_aux,
)
from .errors import (
    DimensionMismatch,
    ParseError,
    UnsupportedBlockStructure,
)
from .ipm import (
    DenseHsdeProgram,
    DualizedHsdeProgram,
    SolveResult,
    adaptive_step_solve,
    short_step_solve,
)
from .linalg import smat, tri
from .model import SdpProblem
from .recovery import LowRankFactor, Metrics, complete_low_rank, dimacs_metrics

METHODS = ("ctc", "dctc", "dctc-aux")
STEPS = ("short", "adaptive")
ORACLE_MAX_ORDER = 50


# ---------------------------------------------------------------------------
# graph input with weights
# ---------------------------------------------------------------------------


def parse_weighted_graph(text: str):
    """Parse the edge-list format, keeping the optional third column as the
    edge weight (default 1.0; repeated edges accumulate)."""
    n, edges = parse_edge_list(text)
    weights: dict = {}
    for u, v, w in edges:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        weights[key] = weights.get(key, 0.0) + w
    return Graph(n=n, edges=[(u, v) for u, v, _ in edges]), weights


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _edge_array(graph: Graph) -> np.ndarray:
    """The graph's edges (u, v), u < v, as an (E, 2) array."""
    return np.array(graph.edges, dtype=np.int64).reshape(-1, 2)


def _laplacian(graph: Graph, weights, scale: float):
    """(rows, cols, vals) of ``scale`` times the weighted Laplacian
    diag(W 1) - W: the edges, then the diagonal."""
    weights = weights or {}
    edges = _edge_array(graph)
    w = np.array([float(weights.get(e, 1.0)) for e in graph.edges], float)
    deg = np.bincount(edges.ravel(), np.repeat(w, 2), graph.n)
    diag = np.arange(graph.n)
    return (
        np.concatenate([edges[:, 1], diag]),
        np.concatenate([edges[:, 0], diag]),
        np.concatenate([-scale * w, scale * deg]),
    )


def gen_maxkcut(graph: Graph, k: int, weights=None) -> SdpProblem:
    """Relaxation of MAX k-CUT: minimize -((k-1)/2k) L.X with unit
    diagonal; for k >= 3 each edge adds X[i,j] >= -1/(k-1).  The cut bound
    is the negated optimal value."""
    if k < 2:
        raise DimensionMismatch(f"k must be at least 2, got {k}")
    n = graph.n
    diag = np.arange(n)
    # row i fixes X[i,i] = 1; for k >= 3, row n + e bounds edge e, whose
    # single stored off-diagonal entry doubles in the inner product, so the
    # bound is 2 * (-1/(k-1))
    edges = _edge_array(graph) if k >= 3 else np.zeros((0, 2), np.int64)
    m = n + len(edges)
    rows, cols, vals = _laplacian(graph, weights, -(k - 1) / (2.0 * k))
    triplets = (
        np.concatenate([np.arange(m), np.full(rows.size, m)]),
        np.concatenate([diag, edges[:, 1], rows]),
        np.concatenate([diag, edges[:, 0], cols]),
        np.concatenate([np.ones(m), vals]),
    )
    b = np.concatenate([np.ones(n), np.full(len(edges), -2.0 / (k - 1))])
    senses = ["eq"] * n + ["ge"] * len(edges)
    return SdpProblem(n, triplets, b, senses)


def gen_maxcut(graph: Graph, weights=None) -> SdpProblem:
    """MAX CUT relaxation: the k = 2 cut problem without the redundant
    edge inequalities."""
    return gen_maxkcut(graph, 2, weights)


def gen_lovasz_theta(graph: Graph) -> SdpProblem:
    """Arrow-pattern theta program of order n+1: minimize
    [[I, 1], [1^T, 0]] . X with X[i,j] = 0 on edges and X[n+1,n+1] = 1.
    The graph's theta number is the negated optimal value."""
    n = graph.n
    edges = _edge_array(graph)
    m = len(edges) + 1  # the edge rows, then X[n+1,n+1] = 1
    diag = np.arange(n)
    triplets = (
        np.concatenate([np.arange(m), np.full(2 * n, m)]),
        np.concatenate([edges[:, 1], [n], diag, np.full(n, n)]),
        np.concatenate([edges[:, 0], [n], diag, diag]),
        np.ones(m + 2 * n),
    )
    return SdpProblem(n + 1, triplets, np.r_[np.zeros(m - 1), 1.0])


# ---------------------------------------------------------------------------
# SDPA sparse format (subset: one PSD block, optional trailing LP block)
# ---------------------------------------------------------------------------


def _content_lines(text: str):
    """(lineno, line) pairs with blanks and comment lines removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in '"*':
            continue
        yield lineno, line


def _vector_tokens(line: str) -> list:
    return line.replace(",", " ").replace("{", " ").replace("}", " ").replace(
        "(", " "
    ).replace(")", " ").split()


def read_sdpa(source) -> SdpProblem:
    """Read the supported SDPA sparse subset: one PSD block, optionally
    followed by one diagonal block whose coordinates encode inequality
    senses (a coordinate used by exactly one constraint with a negative
    coefficient marks a >= row, positive marks <=)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = list(_content_lines(text))
    if len(lines) < 4:
        raise ParseError(
            f"line {lines[-1][0] if lines else 1}: "
            "file ends before the block-size and right-hand-side lines"
        )

    def intline(idx, what):
        lineno, line = lines[idx]
        toks = _vector_tokens(line)
        if len(toks) != 1:
            raise ParseError(f"line {lineno}: expected a single {what}")
        try:
            return int(toks[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer {what}")

    m = intline(0, "constraint count")
    nblocks = intline(1, "block count")
    if m < 0 or nblocks <= 0:
        raise ParseError(f"line {lines[0][0]}: negative counts")

    lineno, sizes_line = lines[2]
    toks = _vector_tokens(sizes_line)
    if len(toks) != nblocks:
        raise ParseError(
            f"line {lineno}: expected {nblocks} block sizes, got {len(toks)}"
        )
    try:
        sizes = [int(t) for t in toks]
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer block size")
    if any(s == 0 for s in sizes):
        raise ParseError(f"line {lineno}: zero block size")
    if nblocks > 2 or sizes[0] < 0 or (nblocks == 2 and sizes[1] > 0):
        raise UnsupportedBlockStructure(
            "supported files have one PSD block, optionally followed by "
            f"one diagonal block; got sizes {sizes}"
        )
    n = sizes[0]
    lp_size = -sizes[1] if nblocks == 2 else 0

    lineno, b_line = lines[3]
    toks = _vector_tokens(b_line)
    if len(toks) != m:
        raise ParseError(
            f"line {lineno}: expected {m} right-hand sides, got {len(toks)}"
        )
    try:
        b = np.array([float(t) for t in toks])
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric right-hand side")

    psd = ([], [], [], [])  # matno, i, j, value of each PSD-block entry
    lp_entries: dict = {}  # (matno, diagonal coordinate) -> value
    for lineno, line in lines[4:]:
        toks = line.split()
        if len(toks) != 5:
            raise ParseError(
                f"line {lineno}: expected 'matno blkno i j value', "
                f"got {len(toks)} fields"
            )
        try:
            matno, blkno, i, j = (int(t) for t in toks[:4])
            value = float(toks[4])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric entry fields")
        if not (0 <= matno <= m):
            raise ParseError(
                f"line {lineno}: matrix number {matno} outside [0, {m}]"
            )
        if not (1 <= blkno <= nblocks):
            raise ParseError(
                f"line {lineno}: block number {blkno} outside [1, {nblocks}]"
            )
        size = n if blkno == 1 else lp_size
        if not (1 <= i <= size and 1 <= j <= size):
            raise ParseError(
                f"line {lineno}: entry ({i}, {j}) outside block of size "
                f"{size}"
            )
        if blkno == 1:
            for column, x in zip(psd, (matno, i - 1, j - 1, value)):
                column.append(x)
        else:
            if i != j:
                raise ParseError(
                    f"line {lineno}: off-diagonal entry in a diagonal block"
                )
            key = (matno, i - 1)
            lp_entries[key] = lp_entries.get(key, 0.0) + value

    senses = ["eq"] * m
    coords: dict = {}  # constraint -> the diagonal coordinates it touches
    for (k, pos), val in lp_entries.items():
        if k == 0:
            raise UnsupportedBlockStructure(
                "the objective touches the diagonal block; senses cannot "
                "be reconstructed"
            )
        coords.setdefault(k, []).append((pos, val))
    users: dict = {}  # diagonal coordinate -> the constraints touching it
    for k in sorted(coords):
        if len(coords[k]) > 1:
            raise UnsupportedBlockStructure(
                f"constraint {k} touches several diagonal coordinates"
            )
        pos, val = coords[k][0]
        users.setdefault(pos, []).append((k, val))
    for pos, touching in users.items():
        if len(touching) != 1:
            raise UnsupportedBlockStructure(
                f"diagonal coordinate {pos + 1} is shared by "
                f"constraints {sorted(k for k, _ in touching)}"
            )
        k, val = touching[0]
        if val != 0.0:
            senses[k - 1] = "ge" if val < 0 else "le"

    # file matrix 0 is the cost, stored under id m after A_1..A_m
    ids = (np.array(psd[0], dtype=np.int64) - 1) % (m + 1)
    return SdpProblem(n, (ids, *psd[1:]), b, senses)


def write_sdpa(sdp: SdpProblem, destination) -> None:
    """Write the supported SDPA sparse subset (inverse of read_sdpa)."""
    n_ineq = sdp.n_ineq
    lines = [f"{sdp.m}", "2" if n_ineq else "1"]
    lines.append(f"{sdp.n} -{n_ineq}" if n_ineq else f"{sdp.n}")
    lines.append(" ".join(f"{v:.17g}" for v in sdp.b))

    ids, rows, cols, vals = sdp.triplets
    # stored lower triangle (r >= c); the format wants i <= j
    entries = [
        f"{i} 1 {c + 1} {r + 1} {v:.17g}"
        for i, r, c, v in zip(
            ((ids + 1) % (sdp.m + 1)).tolist(),
            rows.tolist(), cols.tolist(), vals.tolist(),
        )
    ]
    start = np.searchsorted(ids, np.arange(sdp.m + 1))  # A_1..A_m, then C
    lines += entries[start[-1]:]  # the cost is file matrix 0
    done = 0
    senses = np.asarray(sdp.senses)
    for slot, i in enumerate(np.flatnonzero(senses != "eq").tolist(), 1):
        lines += entries[done:start[i + 1]]
        done = start[i + 1]
        coef = -1.0 if senses[i] == "ge" else 1.0
        lines.append(f"{i + 1} 2 {slot} {slot} {coef:.17g}")
    lines += entries[done:start[-1]]
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# dense reference oracle
# ---------------------------------------------------------------------------


def dense_reference_solve(sdp: SdpProblem, eps: float = 1e-8):
    """Solve the semidefinite program directly over svec(X) (plus one
    nonnegative slack per inequality row) with a dense normal matrix and no
    conversion.  Returns (X, y, S) with S the dual slack matrix.  Intended
    as a brute-force cross-check at small order.

    The default tolerance is the reliable floating-point operating point:
    problems whose optimum is rank deficient push the central path into a
    region (complementarity products near machine epsilon times the block
    scale) where tighter targets can end in ``NumericalStall`` rather than
    convergence."""
    n = sdp.n
    if n > ORACLE_MAX_ORDER:
        raise DimensionMismatch(
            f"reference solver is limited to order {ORACLE_MAX_ORDER}, "
            f"got {n}"
        )
    k = tri(n)
    n_ineq = sdp.n_ineq
    m_op = np.zeros((sdp.m, k + n_ineq))
    m_op[:, :k] = sdp.stacked_rows().toarray()
    slot = 0
    for i, sense in enumerate(sdp.senses):
        if sense == "eq":
            continue
        m_op[i, k + slot] = -1.0 if sense == "ge" else 1.0
        slot += 1
    c = np.concatenate([sdp.cost_svec(), np.zeros(n_ineq)])
    segments = [("psd", n)]
    if n_ineq:
        segments.append(("nonneg", n_ineq))
    program = DenseHsdeProgram(
        m_op, sdp.b, c, ConeSpec(segments=tuple(segments))
    )
    res = adaptive_step_solve(program, eps=eps, max_iter=200)
    st = res.state
    x_mat = smat(st.x[:k] / st.tau)
    y = st.y / st.tau
    s_mat = smat(st.s[:k] / st.tau)
    return x_mat, y, s_mat


# ---------------------------------------------------------------------------
# solve driver
# ---------------------------------------------------------------------------


@dataclass
class SolveOutcome:
    """End-to-end result of the conversion pipeline on one problem."""

    method: str
    step: str
    status: str
    objective: float
    z: np.ndarray
    y: np.ndarray  # multipliers of the original constraints
    factor: LowRankFactor
    metrics: Metrics
    omega: int
    ell: int
    iterations: int
    eps: float
    ctc: ConvertedProblem
    result: SolveResult = field(repr=False, default=None)

    def metrics_json(self) -> str:
        payload = json.loads(self.metrics.to_json())
        payload["omega"] = self.omega
        payload["ell"] = self.ell
        return json.dumps(payload)


def solve_sdp(
    sdp: SdpProblem,
    method: str = "dctc",
    eps: float = 1e-8,
    step: str = "adaptive",
    max_iter: int | None = None,
    order: list | None = None,
    **solver_kw,
) -> SolveOutcome:
    """Convert, solve, and recover a low-rank completion.

    method: "ctc" solves the converted block problem with a dense
    row-space normal matrix (the baseline); "dctc" dualizes it so the
    normal matrix is block-tree structured; "dctc-aux" additionally
    splits multi-bag constraints with auxiliary chain variables before
    dualizing.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if step not in STEPS:
        raise ValueError(f"step must be one of {STEPS}, got {step!r}")

    td = decompose(sparsity_graph(sdp.n, sdp.triplets), order)
    if method == "dctc-aux":
        ctc = separate_with_aux(sdp, td)
    else:
        ctc = build_ctc(sdp, td)

    if method == "ctc":
        program = DenseHsdeProgram(
            ctc.g_matrix().toarray(), ctc.g_rhs, ctc.c_z, ctc.cone
        )
    else:
        program = DualizedHsdeProgram(dualize(ctc))

    if step == "short":
        res = short_step_solve(
            program, eps=eps, max_iter=max_iter or 50000, **solver_kw
        )
    else:
        res = adaptive_step_solve(
            program, eps=eps, max_iter=max_iter or 200, **solver_kw
        )

    st = res.state
    if method == "ctc":
        z = st.x / st.tau
        u = st.y / st.tau
    else:
        dualized = program.dualized
        z = dualized.ctc_primal(st.y, st.tau)
        u, _sigma = dualized.ctc_dual(st.x, st.tau)

    objective = float(ctc.c_z @ z)
    blocks_map = ctc.extract_bag_matrices(z)
    factor = complete_low_rank(
        [blocks_map[j] for j in range(td.ell)], td, eps
    )
    y_sdp = u[ctc.dual_row_of_constraint]

    metrics = dimacs_metrics(
        sdp,
        factor,
        y_sdp,
        iterations=res.iterations,
        time_per_iter_s=res.time_per_iter_s,
    )
    return SolveOutcome(
        method=method,
        step=step,
        status=res.status,
        objective=objective,
        z=z,
        y=y_sdp,
        factor=factor,
        metrics=metrics,
        omega=td.omega,
        ell=td.ell,
        iterations=res.iterations,
        eps=eps,
        ctc=ctc,
        result=res,
    )
