"""Problem generators, SDPA sparse-format I/O, the dense reference solver,
and the end-to-end solve driver.

Generators build standard-form minimization problems; for the cut
relaxations and the theta problem the quantity of interest is the
*negated* optimal value (the solver minimizes).

``read_sdpa`` reads the four header lines one at a time.  It parses every
entry line in one call of numpy's C text reader, then range-checks the
entries and rebuilds the senses by array passes.  A faulty file raises the
error of its first faulty line, with that line's number, as a line-by-line
read would.  Every token, header or entry, takes numpy's grammar: counts,
block sizes and the first four fields of an entry are decimal integers
that fit in int64; right-hand sides and entry values are anything
``float()`` reads (``inf``, ``nan``, ``1e500``, ``1.``).  Unlike ``int()``
and ``float()``, it rejects digit-group underscores (``1_0``) and non-ASCII
digits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import islice

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

# one entry line: matno blkno i j value
ENTRY = np.dtype([
    ("matno", np.int64),
    ("blkno", np.int64),
    ("i", np.int64),
    ("j", np.int64),
    ("value", np.float64),
])


def _content_lines(lines: list) -> list:
    """The lines, stripped, without blanks and comment lines (those that
    start with " or *)."""
    return [s for s in map(str.strip, lines) if s and s[0] not in '"*']


def _numbered_content_lines(lines: list, start: int = 1):
    """(lineno, line) of each content line of ``lines``, numbered from
    ``start``."""
    for lineno, raw in enumerate(lines, start):
        for line in _content_lines([raw]):
            yield lineno, line


def _vector_tokens(line: str) -> list:
    return line.replace(",", " ").replace("{", " ").replace("}", " ").replace(
        "(", " "
    ).replace(")", " ").split()


def _parse_entries(lines: list) -> np.ndarray:
    """The entry lines as one ENTRY array, read by numpy's C text reader.
    ValueError if a line does not hold five whitespace-separated fields,
    or a field is not an int64 (the first four) or a float (the fifth)."""
    if not lines:
        return np.zeros(0, dtype=ENTRY)
    return np.loadtxt(lines, dtype=ENTRY, comments=None, ndmin=1)


def _header_numbers(toks: list, dtype) -> np.ndarray:
    """The tokens of a header line as one ``dtype`` array, read by the
    entry lines' reader.  ValueError if a token does not read."""
    if not toks:
        return np.zeros(0, dtype=dtype)
    return np.loadtxt([" ".join(toks)], dtype=dtype, comments=None, ndmin=1)


def _first_unreadable(lines: list) -> int:
    """Index of the first line ``_parse_entries`` rejects, found by
    bisection: a prefix fails exactly when it holds a rejected line."""
    good, bad = 0, len(lines)  # lines[:good] reads, lines[:bad] does not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_entries(lines[:mid])
            good = mid
        except ValueError:
            bad = mid
    return good


def _first_entry_fault(rows, m, nblocks, n, lp_size):
    """(row, message) of the first entry that fails a range check, taking
    the checks of a row in the order matrix number, block number, index
    range, off-diagonal entry in the diagonal block; None if none does."""
    matno, blkno, i, j = (rows[f] for f in ENTRY.names[:4])
    low, high = np.minimum(i, j), np.maximum(i, j)
    faults = (
        (matno < 0) | (matno > m),
        (blkno < 1) | (blkno > nblocks),
        (low < 1) | np.where(blkno == 1, high > n, high > lp_size),
        (blkno != 1) & (i != j),
    )
    bad = np.logical_or.reduce(faults)
    if not bad.any():
        return None
    r = int(np.argmax(bad))
    k, blk, ii, jj = (int(a[r]) for a in (matno, blkno, i, j))
    messages = (
        f"matrix number {k} outside [0, {m}]",
        f"block number {blk} outside [1, {nblocks}]",
        f"entry ({ii}, {jj}) outside block of size "
        f"{n if blk == 1 else lp_size}",
        "off-diagonal entry in a diagonal block",
    )
    return r, next(msg for msg, f in zip(messages, faults) if f[r])


def _read_entries(body: list, start: int, m, nblocks, n, lp_size):
    """The entry lines among ``body``, the raw lines from line ``start``
    on, parsed and range-checked.  A ParseError names the first faulty
    line and its first fault, as a line-by-line read would."""
    texts = _content_lines(body)
    try:
        rows = _parse_entries(texts)
        stop = None
    except ValueError:
        stop = _first_unreadable(texts)
        rows = _parse_entries(texts[:stop])
    fault = _first_entry_fault(rows, m, nblocks, n, lp_size)
    if fault is None and stop is None:
        return rows
    linenos = [lineno for lineno, _ in _numbered_content_lines(body, start)]
    if fault is not None:
        r, message = fault
        raise ParseError(f"line {linenos[r]}: {message}")
    count = len(texts[stop].split())
    if count != 5:
        raise ParseError(
            f"line {linenos[stop]}: expected 'matno blkno i j value', "
            f"got {count} fields"
        )
    raise ParseError(f"line {linenos[stop]}: non-numeric entry fields")


def _senses(k, pos, val, m) -> list:
    """The senses encoded by the diagonal-block entries (matrix k,
    coordinate pos, value val): a coordinate used by exactly one
    constraint marks it >= (negative coefficient) or <= (positive); its
    duplicate entries are summed in file order."""
    if (k == 0).any():
        raise UnsupportedBlockStructure(
            "the objective touches the diagonal block; senses cannot "
            "be reconstructed"
        )
    # distinct (constraint, coordinate) pairs, by constraint then coordinate
    order = np.lexsort((pos, k))
    k, pos, val = k[order], pos[order], val[order]
    new = np.ones(k.size, dtype=bool)
    new[1:] = (k[1:] != k[:-1]) | (pos[1:] != pos[:-1])
    pk, ppos = k[new], pos[new]
    several = np.flatnonzero(pk[1:] == pk[:-1])
    if several.size:
        raise UnsupportedBlockStructure(
            f"constraint {pk[several[0]]} touches several diagonal "
            "coordinates"
        )
    # each constraint has one coordinate; name the shared coordinate whose
    # first constraint comes first
    shared = np.bincount(ppos)[ppos] > 1
    if shared.any():
        p = ppos[np.argmax(shared)]
        raise UnsupportedBlockStructure(
            f"diagonal coordinate {p + 1} is shared by "
            f"constraints {pk[ppos == p].tolist()}"
        )
    # lexsort is stable: each constraint's entries are still in file order
    coef = np.bincount(k, weights=val)[pk]
    senses = np.full(m, "eq")
    senses[pk[coef != 0.0] - 1] = "le"  # a NaN sum marks <= as well
    senses[pk[coef < 0.0] - 1] = "ge"
    return senses.tolist()


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
    raw = text.splitlines()
    lines = list(islice(_numbered_content_lines(raw), 4))  # the header
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
            return int(_header_numbers(toks, np.int64)[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer {what}")

    m = intline(0, "constraint count")
    if m < 0:
        raise ParseError(f"line {lines[0][0]}: negative constraint count")
    nblocks = intline(1, "block count")
    if nblocks <= 0:
        raise ParseError(f"line {lines[1][0]}: block count must be positive")

    lineno, sizes_line = lines[2]
    toks = _vector_tokens(sizes_line)
    if len(toks) != nblocks:
        raise ParseError(
            f"line {lineno}: expected {nblocks} block sizes, got {len(toks)}"
        )
    try:
        sizes = _header_numbers(toks, np.int64).tolist()
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
        b = _header_numbers(toks, np.float64)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric right-hand side")

    start = lines[3][0]  # the entry lines follow the header
    rows = _read_entries(raw[start:], start + 1, m, nblocks, n, lp_size)
    lp = rows["blkno"] == 2
    diag = rows[lp]
    senses = _senses(diag["matno"], diag["i"] - 1, diag["value"], m)
    psd = rows[~lp]
    # file matrix 0 is the cost, stored under id m after A_1..A_m
    ids = (psd["matno"] - 1) % (m + 1)
    triplets = (ids, psd["i"] - 1, psd["j"] - 1, psd["value"])
    return SdpProblem(n, triplets, b, senses)


def write_sdpa(sdp: SdpProblem, destination) -> None:
    """Write the supported SDPA sparse subset (inverse of read_sdpa)."""
    n_ineq = sdp.n_ineq
    lines = [f"{sdp.m}", "2" if n_ineq else "1"]
    lines.append(f"{sdp.n} -{n_ineq}" if n_ineq else f"{sdp.n}")
    # with no constraints the vector is written {}: the reader skips a
    # blank line, and would take the first entry line for b
    lines.append(" ".join(f"{v:.17g}" for v in sdp.b) or "{}")

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
    cone = ConeSpec(0, [n], [0], [n_ineq])
    program = DenseHsdeProgram(m_op, sdp.b, c, cone)
    res = adaptive_step_solve(program, eps=eps)
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
    pattern: dict  # the normal matrix's block-pattern statistics
    result: SolveResult = field(repr=False, default=None)

    def metrics_json(self) -> str:
        """The solve's status, the scores, the iteration count and median
        iteration time, and the decomposition's width and bag count, as
        one JSON object."""
        return json.dumps({
            "status": self.status,
            **asdict(self.metrics),
            "iters": self.result.iterations,
            "time_per_iter_s": self.result.time_per_iter_s,
            "omega": self.omega,
            "ell": self.ell,
        })


def solve_sdp(
    sdp: SdpProblem,
    method: str = "dctc",
    eps: float = 1e-8,
    step: str = "adaptive",
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

    td = decompose(sparsity_graph(sdp.n, sdp.triplets))
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
        res = short_step_solve(program, eps=eps)
    else:
        res = adaptive_step_solve(program, eps=eps)

    st = res.state
    if method == "ctc":
        z = st.x / st.tau
        u = st.y / st.tau
    else:
        dualized = program.dualized
        z = dualized.ctc_primal(st.y, st.tau)
        u = dualized.ctc_dual(st.x, st.tau)

    objective = float(ctc.c_z @ z)
    factor = complete_low_rank(ctc.extract_bag_matrices(z), td, eps)
    y_sdp = u[ctc.dual_row_of_constraint]

    metrics = dimacs_metrics(sdp, factor, y_sdp)
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
        pattern=program.pattern_stats(),
        result=res,
    )
