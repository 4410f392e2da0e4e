"""Tests for generators, SDPA I/O, the dense reference oracle, and the
solve driver."""

import importlib.util
import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesdp.chordal import Graph, decompose, parse_graph, sparsity_graph
from treesdp.errors import (
    DimensionMismatch,
    ParseError,
    StructureViolation,
    TreeSdpError,
    UnsupportedBlockStructure,
)
from treesdp.frontends import (
    dense_reference_solve,
    gen_lovasz_theta,
    gen_maxcut,
    gen_maxkcut,
    parse_weighted_graph,
    read_sdpa,
    solve_sdp,
    write_sdpa,
)
from treesdp.model import SdpProblem
from util import (
    SparseSymmetric,
    dense_dimacs_metrics,
    dot_sym,
    is_partially_separable,
    make_problem,
    path_rayleigh_problem,
    power_flow_problem,
    reference_read_sdpa,
    same_bits,
    same_problem,
    to_dense,
)

K2 = Graph(2, [(0, 1)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def oracle_objective(sdp, eps=1e-8):
    x, y, s = dense_reference_solve(sdp, eps)
    return dot_sym(sdp.cost, x)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_maxcut_single_edge_analytic():
    # maximize (1/4) L.X with unit diagonal: X = [[1,-1],[-1,1]] gives
    # L.X = 4, so the cut bound is 1; the minimized objective is -1
    sdp = gen_maxcut(K2)
    assert sdp.n == 2
    assert sdp.m == 2
    assert all(s == "eq" for s in sdp.senses)
    obj = oracle_objective(sdp)
    assert obj == pytest.approx(-1.0, abs=1e-7)


def test_maxkcut_three_single_edge_analytic():
    # with X[0,1] >= -1/2 active, (1/3) L.X = (1/3) * (2 + 1) = 1
    sdp = gen_maxkcut(K2, 3)
    assert sdp.m == 3  # two diagonal rows plus one edge inequality
    assert sdp.senses.count("ge") == 1
    x, y, s = dense_reference_solve(sdp)
    assert dot_sym(sdp.cost, x) == pytest.approx(-1.0, abs=1e-7)
    assert x[0, 1] == pytest.approx(-0.5, abs=1e-6)


def test_maxkcut_rejects_k_below_two():
    with pytest.raises(DimensionMismatch):
        gen_maxkcut(K2, 1)


def test_maxcut_edgeless_objective_zero():
    sdp = gen_maxcut(Graph(3, []))
    assert np.allclose(to_dense(sdp.cost, sdp.n), 0.0)
    assert oracle_objective(sdp) == pytest.approx(0.0, abs=1e-7)


def test_maxcut_weighted_triangle():
    # cut bound of a weighted triangle (w01=2, w12=1, w02=1): best cut
    # separates vertex 1... the relaxation upper-bounds the true maxcut 3;
    # for odd cycles the bound is strictly above, so only check it is >= 3
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    sdp = gen_maxcut(g, weights={(0, 1): 2.0, (1, 2): 1.0, (0, 2): 1.0})
    bound = -oracle_objective(sdp)
    assert bound >= 3.0 - 1e-6


def test_lovasz_theta_known_values():
    # theta is the negated minimum of the arrow-pattern program
    for n in (3, 4):
        sdp = gen_lovasz_theta(Graph(n, []))
        assert -oracle_objective(sdp) == pytest.approx(n, abs=1e-6)
    kn = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert -oracle_objective(gen_lovasz_theta(kn)) == pytest.approx(
        1.0, abs=1e-6
    )
    assert -oracle_objective(gen_lovasz_theta(C5)) == pytest.approx(
        np.sqrt(5.0), abs=1e-6
    )


def test_generators_are_partially_separable():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    for sdp in (gen_maxcut(g), gen_maxkcut(g, 3), gen_lovasz_theta(g)):
        td = decompose(sparsity_graph(sdp.n, sdp.triplets))
        for a in sdp.constraints:
            assert is_partially_separable(a, td)


def test_parse_weighted_graph():
    text = "# comment\n3 2\n1 2 2.5\n2 3\n"
    graph, weights = parse_weighted_graph(text)
    assert graph.n == 3
    assert weights == {(0, 1): 2.5, (1, 2): 1.0}


def test_edge_list_comment_lines():
    text = "# hash\n; semicolon\n* star\n3 2\n;x\n1 2 2.5\n*y\n2 3\n#z\n"
    graph, weights = parse_weighted_graph(text)
    assert parse_graph(text).edges == graph.edges == ((0, 1), (1, 2))
    assert weights == {(0, 1): 2.5, (1, 2): 1.0}


# ---------------------------------------------------------------------------
# SDPA sparse I/O
# ---------------------------------------------------------------------------


def test_sdpa_hand_written_one_by_one():
    text = '"a comment\n1\n1\n1\n1.0\n0 1 1 1 2.0\n1 1 1 1 1.0\n'
    sdp = read_sdpa(io.StringIO(text))
    assert sdp.n == 1
    assert sdp.m == 1
    assert to_dense(sdp.cost, sdp.n) == pytest.approx(np.array([[2.0]]))
    assert to_dense(sdp.constraints[0], 1) == pytest.approx(np.array([[1.0]]))
    assert sdp.b == pytest.approx(np.array([1.0]))
    assert sdp.senses == ["eq"]


def test_sdpa_round_trip_equality_problem(tmp_path):
    sdp = gen_maxkcut(K2, 2)
    path = tmp_path / "mc.dat-s"
    write_sdpa(sdp, path)
    back = read_sdpa(path)
    assert back.n == sdp.n
    assert back.m == sdp.m
    assert back.senses == sdp.senses
    assert np.allclose(back.b, sdp.b)
    assert np.allclose(to_dense(back.cost, back.n), to_dense(sdp.cost, sdp.n))
    for a, b_mat in zip(back.constraints, sdp.constraints):
        assert np.allclose(to_dense(a, sdp.n), to_dense(b_mat, sdp.n))


def test_sdpa_round_trip_inequality_problem(tmp_path):
    sdp = gen_maxkcut(C5, 3)
    path = tmp_path / "mkc.dat-s"
    write_sdpa(sdp, path)
    text = path.read_text()
    # the writer must emit an LP block for the five edge inequalities
    assert text.splitlines()[1].strip() == "2"
    back = read_sdpa(path)
    assert back.senses == sdp.senses
    assert np.allclose(back.b, sdp.b)
    assert np.allclose(to_dense(back.cost, back.n), to_dense(sdp.cost, sdp.n))
    for a, b_mat in zip(back.constraints, sdp.constraints):
        assert np.allclose(to_dense(a, sdp.n), to_dense(b_mat, sdp.n))


def test_sdpa_accepts_braces_and_star_comments():
    text = "* header\n2\n1\n{2}\n1.0, 2.0\n0 1 1 1 1.0\n1 1 1 2 0.5\n2 1 2 2 1.0\n"
    sdp = read_sdpa(io.StringIO(text))
    assert sdp.n == 2
    assert sdp.m == 2
    assert to_dense(sdp.constraints[0], sdp.n) == pytest.approx(
        np.array([[0.0, 0.5], [0.5, 0.0]])
    )


def test_sdpa_parse_errors_name_the_line():
    # five fields expected on entry lines
    bad_entry = "1\n1\n1\n1.0\n0 1 1 1\n"
    with pytest.raises(ParseError, match="line 5"):
        read_sdpa(io.StringIO(bad_entry))
    # non-numeric b
    bad_b = "1\n1\n1\nxx\n0 1 1 1 2.0\n"
    with pytest.raises(ParseError, match="line 4"):
        read_sdpa(io.StringIO(bad_b))
    # vertex index outside the block
    bad_idx = "1\n1\n2\n1.0\n1 1 3 3 1.0\n"
    with pytest.raises(ParseError, match="line 5"):
        read_sdpa(io.StringIO(bad_idx))
    # empty file
    with pytest.raises(ParseError):
        read_sdpa(io.StringIO(""))
    # each count is checked on its own line, before the next is read
    for name, message in (
        ("negative-m", "line 1: negative constraint count"),
        ("negative-m-then-text-blocks", "line 1: negative constraint count"),
        ("zero-blocks", "line 2: block count must be positive"),
        ("comment-then-zero-blocks", "line 3: block count must be positive"),
    ):
        got = read_outcome(read_sdpa, MALFORMED[name])
        assert got == (ParseError, message)


def test_sdpa_rejects_unsupported_block_structure():
    # two PSD blocks are outside the supported subset
    two_psd = "1\n2\n2 2\n1.0\n1 1 1 1 1.0\n"
    with pytest.raises(UnsupportedBlockStructure):
        read_sdpa(io.StringIO(two_psd))
    # LP block first is outside the subset
    lp_first = "1\n2\n-2 2\n1.0\n1 2 1 1 1.0\n"
    with pytest.raises(UnsupportedBlockStructure):
        read_sdpa(io.StringIO(lp_first))
    # an LP coordinate shared by two constraints cannot encode senses
    shared = (
        "2\n2\n2 -1\n1.0 1.0\n"
        "1 1 1 1 1.0\n1 2 1 1 -1.0\n"
        "2 1 2 2 1.0\n2 2 1 1 -1.0\n"
    )
    with pytest.raises(UnsupportedBlockStructure):
        read_sdpa(io.StringIO(shared))
    # off-diagonal entries in a diagonal block are malformed
    offdiag_lp = "1\n2\n1 -2\n1.0\n1 2 1 2 1.0\n"
    with pytest.raises(ParseError):
        read_sdpa(io.StringIO(offdiag_lp))


def test_sdpa_round_trip_without_constraints():
    # m = 0: the right-hand-side line must survive as a content line
    cost = SparseSymmetric(order=2, rows=[0, 1, 1], cols=[0, 0, 1],
                           vals=[1.0, -0.5, 2.0])
    sdp = make_problem(cost, [], np.zeros(0))
    text = io.StringIO()
    write_sdpa(sdp, text)
    assert same_problem(read_sdpa(io.StringIO(text.getvalue())), sdp)


# ---------------------------------------------------------------------------
# the array reader against the per-line reference
# ---------------------------------------------------------------------------


def read_outcome(reader, text):
    """The problem ``reader`` makes of ``text``, or the type and message
    of the error it raises."""
    try:
        return reader(io.StringIO(text))
    except TreeSdpError as exc:
        return type(exc), str(exc)


def assert_reads_as_the_reference(text):
    got = read_outcome(read_sdpa, text)
    want = read_outcome(reference_read_sdpa, text)
    if isinstance(want, SdpProblem):
        assert isinstance(got, SdpProblem), got
        assert same_problem(got, want)
    else:
        assert got == want


_FILLER = ('" a comment', "* a star comment", '"1 1 1 1 1.0', "", "   ", "\t")
_SEP = st.sampled_from((" ", "  ", "\t", " \t "))
_VALUE = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(width=64).map(lambda v: f"{v:.17g}"),
    st.floats(width=64).map(lambda v: f"{v:E}"),
    st.sampled_from((
        "inf", "-inf", "+inf", "Infinity", "nan", "-nan", "NaN", "1e500",
        "-1e500", "1e-400", "1.", ".5", "+2", "-0", "-0.0", "0", "3e+2",
        "7E-3",
    )),
)


def _int_token(draw, value):
    if value < 0:
        return str(value)
    return draw(st.sampled_from(("{}", "+{}", "0{}", "00{}"))).format(value)


def _vector_line(draw, tokens):
    sep = draw(st.sampled_from((" ", ", ", ",", "\t")))
    left, right = draw(st.sampled_from((("", ""), ("{", "}"), ("(", ")"))))
    return left + sep.join(tokens) + right


@st.composite
def sdpa_texts(draw):
    """SDPA texts of the supported subset in varied layouts, some with
    faulty entry lines: wrong field counts, tokens neither reader takes,
    numbers out of range, and diagonal-block entries that encode no
    sense."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    ineq = [k for k in range(1, m + 1) if draw(st.booleans())]
    lp_size = len(ineq) + draw(st.integers(0, 1))
    nblocks = 2 if lp_size else 1
    sizes = [str(n)] + ([f"-{lp_size}"] if lp_size else [])
    b = [draw(_VALUE) for _ in range(m)]
    head = [
        _int_token(draw, m),
        _int_token(draw, nblocks),
        _vector_line(draw, sizes),
        _vector_line(draw, b) if m else draw(st.sampled_from(("{}", "()"))),
    ]
    fields = []  # (matno, blkno, i, j, value token)
    for _ in range(draw(st.integers(0, 10))):
        k = draw(st.integers(0, m))
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        fields.append((k, 1, i, j, draw(_VALUE)))
    # summed duplicates: zeros, sums whose sign depends on the order, NaN
    for slot, k in enumerate(ineq, 1):
        for coef in draw(st.lists(
            st.sampled_from((
                "-1.0", "1", "0.0", "-0.5", "2e0", "0.1", "0.2", "-0.3",
                "nan", "inf", "-inf",
            )),
            min_size=1, max_size=3,
        )):
            fields.append((k, 2, slot, slot, coef))
    faulty = [
        f"{m + 1} 1 1 1 1.0", "-1 1 1 1 1.0", f"1 {nblocks + 1} 1 1 1.0",
        "1 0 1 1 1.0", f"0 1 {n + 1} 1 1.0", "0 1 1 0 1.0",
        f"1 2 {lp_size + 1} {lp_size + 1} 1.0", "1 2 1 2 1.0",
        "0 2 1 1 -1.0", f"{m} 2 {lp_size} {lp_size} -1.0",
        "1 1 1 1", "1 1 1 1 1.0 2.0", "x 1 1 1 1.0", "1.0 1 1 1 1.0",
        "1 1 1 1 1e5x", "1 1 1 1 0x10", "1 1 1 1 1D3", "--1 1 1 1 1",
    ]
    sep = draw(_SEP)
    lines = [
        sep.join([_int_token(draw, x) for x in f[:4]] + [f[4]])
        for f in fields
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(faulty)))
    lines = draw(st.permutations(lines)) if draw(st.booleans()) else lines
    out = []
    for line in head + lines:
        out += draw(st.lists(st.sampled_from(_FILLER), max_size=2))
        pad = draw(st.sampled_from(("", " ", "\t")))
        out.append(pad + line + draw(st.sampled_from(("", " ", "\t"))))
    out += draw(st.lists(st.sampled_from(_FILLER), max_size=2))
    eol = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return eol.join(out) + draw(st.sampled_from(("", eol)))


@settings(max_examples=400, deadline=None)
@given(sdpa_texts())
def test_read_sdpa_matches_the_reference(text):
    assert_reads_as_the_reference(text)


# one file per error branch of the per-line reader; the entry and sense
# files share the header of an order-2 block and a diagonal block of 2
_HEAD = "2\n2\n2 -2\n1.0 1.0\n"
MALFORMED = {
    "empty": "",
    "comments-only": '" a\n* b\n',
    "no-rhs": "1\n1\n1\n",
    "two-counts": "1 2\n1\n1\n1.0\n",
    "text-count": "x\n1\n1\n1.0\n",
    "two-block-counts": "1\n1 1\n1\n1.0\n",
    "text-block-count": "1\nx\n1\n1.0\n",
    "negative-m": "-1\n1\n1\n1.0\n",
    "zero-blocks": "1\n0\n1\n1.0\n",
    "comment-then-zero-blocks": '" c\n1\n0\n1\n1.0\n',
    "negative-m-then-text-blocks": "-1\nx\n1\n1.0\n",
    "size-count": "1\n2\n1\n1.0\n",
    "text-size": "1\n1\nx\n1.0\n",
    "zero-size": "1\n1\n0\n1.0\n",
    "three-blocks": "1\n3\n1 1 1\n1.0\n",
    "diagonal-first": "1\n1\n-2\n1.0\n",
    "two-psd": "1\n2\n2 2\n1.0\n",
    "rhs-count": "2\n1\n1\n1.0\n",
    "text-rhs": "1\n1\n1\nxx\n",
    "four-fields": _HEAD + "1 1 1 1\n",
    "six-fields": _HEAD + "1 1 1 1 1.0 2.0\n",
    "text-field": _HEAD + "1 1 1 1 x\n",
    "float-matno": _HEAD + "1.0 1 1 1 1.0\n",
    "matno-high": _HEAD + "3 1 1 1 1.0\n",
    "matno-negative": _HEAD + "-1 1 1 1 1.0\n",
    "blkno-high": _HEAD + "1 3 1 1 1.0\n",
    "blkno-zero": _HEAD + "1 0 1 1 1.0\n",
    "psd-index-high": _HEAD + "1 1 1 3 1.0\n",
    "psd-index-zero": _HEAD + "1 1 0 1 1.0\n",
    "diagonal-index-high": _HEAD + "1 2 3 3 1.0\n",
    "off-diagonal": _HEAD + "1 2 1 2 1.0\n",
    "objective-sense": _HEAD + "0 2 1 1 -1.0\n",
    "several-coordinates": _HEAD + "1 2 1 1 -1.0\n1 2 2 2 -1.0\n",
    "shared-coordinate": _HEAD + "2 2 1 1 -1.0\n1 2 1 1 1.0\n",
    "several-before-shared": _HEAD + "2 2 1 1 1\n1 2 1 1 1\n2 2 2 2 1\n",
    "first-shared-by-constraint": (
        "4\n2\n2 -2\n1 1 1 1\n"
        "3 2 1 1 1\n2 2 1 1 1\n1 2 2 2 1\n4 2 2 2 1\n"
    ),
    "entry-before-sense": _HEAD + "0 2 1 1 -1.0\n1 1 1 3 1.0\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_read_sdpa_faults_match_the_reference(text):
    assert isinstance(read_outcome(reference_read_sdpa, text), tuple)
    assert_reads_as_the_reference(text)


@pytest.mark.parametrize(
    "coefs, sense",
    [(("1", "1e16", "-1e16"), "eq"), (("-1e16", "1e16", "1"), "le"),
     (("-1", "1e16", "-1e16"), "eq"), (("-1e16", "1e16", "-1"), "ge")],
)
def test_read_sdpa_sums_diagonal_entries_in_file_order(coefs, sense):
    # 1 + 1e16 rounds to 1e16, so only the file order gives the reference's
    # sign
    text = _HEAD + "".join(f"2 2 2 2 {c}\n" for c in coefs)
    assert read_sdpa(io.StringIO(text)).senses == ["eq", sense]
    assert_reads_as_the_reference(text)


# one faulty entry line of each kind; every ordered pair is tried on two
# lines, so each kind comes both first and second
LINE_FAULTS = {
    "fields": "1 1 1 1",
    "token": "1 1 1 1 1e5x",
    "underscore": "1_0 1 1 1 1.0",
    "matno": "3 1 1 1 1.0",
    "blkno": "1 3 1 1 1.0",
    "index": "1 1 1 3 1.0",
    "off-diagonal": "1 2 1 2 1.0",
}


@pytest.mark.parametrize(
    "first, second",
    [(a, b) for a in LINE_FAULTS for b in LINE_FAULTS if a != b],
)
def test_read_sdpa_reports_the_first_faulty_line(first, second):
    text = (
        _HEAD + "0 1 1 1 1.0\n" + LINE_FAULTS[first] + "\n"
        + "2 1 2 1 1.0\n" + LINE_FAULTS[second] + "\n"
    )
    kind, message = read_outcome(read_sdpa, text)
    assert kind is ParseError
    assert message.startswith("line 6: ")
    if "underscore" not in (first, second):
        assert_reads_as_the_reference(text)


@pytest.mark.parametrize(
    "matno, value",
    [("+1", "1"), ("01", "1"), ("1", "1."), ("1", "inf"), ("1", "nan"),
     ("1", "-nan"), ("1", "Infinity"), ("1", "1e500"), ("1", "1e-400")],
)
def test_entry_tokens_read_as_int_and_float_do(matno, value):
    text = f"{_HEAD}{matno} 1 1 2 {value}\n"
    assert_reads_as_the_reference(text)
    vals = read_sdpa(io.StringIO(text)).triplets.vals
    assert same_bits(vals, np.array([float(value)]))


@pytest.mark.parametrize(
    "line", ["1.0 1 1 1 1", "0x10 1 1 1 1", "1 1 1 1 1D3", "1 1 1 1 0x1p3"]
)
def test_entry_tokens_int_and_float_reject_stay_rejected(line):
    text = f"{_HEAD}{line}\n"
    assert read_outcome(read_sdpa, text) == (
        ParseError, "line 5: non-numeric entry fields"
    )
    assert_reads_as_the_reference(text)


@pytest.mark.parametrize(
    "line",
    [
        "1_0 1 1 1 1.0",  # digit-group underscores
        "1 1 1 1 1_0",
        "1 1 1 1 1_0.5",
        "\u0661 1 1 1 1.0",  # a non-ASCII digit
        "1 1 1 1 \u0663",
        "99999999999999999999 1 1 1 1.0",  # beyond int64
    ],
)
def test_entry_tokens_are_ascii_without_underscores(line):
    # int() and float() accept these; the entry reader does not
    text = f"{_HEAD}{line}\n"
    assert read_outcome(read_sdpa, text) == (
        ParseError, "line 5: non-numeric entry fields"
    )


# header tokens that int() and float() accept, on each header line
HEADER_FAULTS = {
    "count-underscore": ("1_0\n1\n1\n1.0", 1, "constraint count"),
    "blocks-non-ascii": ("1\n\u0661\n1\n1.0", 2, "block count"),
    "size-underscore": ("1\n1\n1_0\n1.0", 3, "block size"),
    "size-beyond-int64": ("1\n1\n99999999999999999999\n1.0", 3, "block size"),
    "rhs-underscore": ("1\n1\n1\n1_0.5", 4, "right-hand side"),
    "rhs-non-ascii": ("1\n1\n1\n\u0663", 4, "right-hand side"),
}


@pytest.mark.parametrize(
    "head, lineno, what", HEADER_FAULTS.values(), ids=HEADER_FAULTS.keys()
)
def test_header_tokens_take_the_entry_grammar(head, lineno, what):
    text = head + "\n1 1 1 1 1.0\n"
    kind = "non-numeric" if what == "right-hand side" else "non-integer"
    assert read_outcome(read_sdpa, text) == (
        ParseError, f"line {lineno}: {kind} {what}"
    )
    assert_reads_as_the_reference(text)


def _bench_texts():
    """(label, text) of every benchmark instance at its bench size, for
    the seeds 1 and 7."""
    from test_bench_entry_points import BENCH, _module_tables

    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    sizes = _module_tables(BENCH / "run.py", ("SIZES",))["SIZES"]
    return [
        (f"{name}-{seed}", make(sizes[name], np.random.default_rng(seed)).text)
        for name, make in workloads.FAMILIES.items()
        for seed in (1, 7)
    ]


@pytest.mark.parametrize("label, text", _bench_texts())
def test_read_sdpa_matches_the_reference_on_bench_files(label, text):
    assert_reads_as_the_reference(text)


# ---------------------------------------------------------------------------
# dense reference oracle
# ---------------------------------------------------------------------------


def test_oracle_one_by_one_toy():
    one = SparseSymmetric(order=1, rows=[0], cols=[0], vals=[1.0])
    sdp = make_problem(one, [one], np.array([1.0]))
    x, y, s = dense_reference_solve(sdp)
    assert x[0, 0] == pytest.approx(1.0, abs=1e-7)
    assert y[0] == pytest.approx(1.0, abs=1e-6)
    assert dense_dimacs_metrics(sdp, x, y).L >= 6


def test_oracle_rejects_large_problems():
    corner = SparseSymmetric(order=51, rows=[0], cols=[0], vals=[1.0])
    sdp = make_problem(corner, [corner], np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        dense_reference_solve(sdp, 1e-8)


def test_oracle_metrics_floor_on_theta():
    sdp = gen_lovasz_theta(C5)
    x, y, s = dense_reference_solve(sdp)
    m = dense_dimacs_metrics(sdp, x, y)
    assert m.L >= 6
    assert np.linalg.eigvalsh(s).min() >= -1e-7


# ---------------------------------------------------------------------------
# solve driver
# ---------------------------------------------------------------------------


def test_solve_driver_matches_oracle_on_maxcut():
    g = Graph(8, [(i, i + 1) for i in range(7)] + [(0, 7), (2, 5)])
    sdp = gen_maxcut(g)
    ref = oracle_objective(sdp)
    for method in ("dctc", "dctc-aux", "ctc"):
        out = solve_sdp(sdp, method=method, eps=1e-8, step="adaptive")
        assert out.objective == pytest.approx(ref, abs=1e-5 * (1 + abs(ref)))
        assert out.factor.rank <= out.omega
        assert out.metrics.L >= 5
        assert out.status in ("optimal", "guard_violated")


def test_solve_driver_theta_c5():
    sdp = gen_lovasz_theta(C5)
    out = solve_sdp(sdp, method="dctc", eps=1e-8, step="adaptive")
    assert -out.objective == pytest.approx(np.sqrt(5.0), abs=1e-5)
    assert out.metrics.pinf >= 5
    assert out.metrics.dinf >= 5


def test_solve_driver_inequality_instance():
    sdp = gen_maxkcut(C5, 3)
    ref = oracle_objective(sdp)
    out = solve_sdp(sdp, method="dctc", eps=1e-8, step="adaptive")
    assert out.objective == pytest.approx(ref, abs=1e-5 * (1 + abs(ref)))
    assert out.metrics.pinf >= 5


def test_solve_driver_short_step():
    sdp = gen_maxcut(K2)
    out = solve_sdp(sdp, method="dctc", eps=1e-8, step="short")
    assert out.objective == pytest.approx(-1.0, abs=1e-6)
    assert out.step == "short"


def test_solve_driver_rayleigh_path_aux_equivalence():
    sdp = path_rayleigh_problem(6, seed=4)
    x, y, s = dense_reference_solve(sdp)
    ref = dot_sym(sdp.cost, x)
    out = solve_sdp(sdp, method="dctc-aux", eps=1e-8, step="adaptive")
    assert out.objective == pytest.approx(ref, abs=1e-5 * (1 + abs(ref)))


def test_solve_driver_power_flow_rows_match_the_oracle_under_dctc_aux():
    # the 3 x 10 power-flow grid (n = 30): each bus row covers the bus's
    # closed neighbourhood, which spans several bags.  dctc refuses the
    # rows; dctc-aux chains them and agrees with the dense oracle and with
    # the optimum 0.81 n, which X = 0.81 * 1 1^T attains (Y.X >= 0 and
    # tr X >= 0.81 n for the Laplacian Y and every feasible X)
    sdp = power_flow_problem(3, 10)
    with pytest.raises(StructureViolation, match="touches bags"):
        solve_sdp(sdp, method="dctc", eps=1e-6, step="adaptive")
    out = solve_sdp(sdp, method="dctc-aux", eps=1e-6, step="adaptive")
    assert out.status == "optimal" and out.ctc.n_aux.sum() > 0
    best = 0.81 * sdp.n
    assert out.objective == pytest.approx(best, abs=1e-4)
    assert oracle_objective(sdp, eps=1e-6) == pytest.approx(best, abs=1e-4)


def test_solve_outcome_metrics_json_schema():
    import json

    sdp = gen_maxcut(K2)
    out = solve_sdp(sdp, method="dctc", eps=1e-8, step="adaptive")
    payload = json.loads(out.metrics_json())
    assert list(payload) == [
        "status",
        "pinf",
        "dinf",
        "gap",
        "L",
        "iters",
        "time_per_iter_s",
        "omega",
        "ell",
    ]
    assert payload["status"] == out.status
    for key in ("pinf", "dinf", "gap", "L"):
        assert payload[key] == getattr(out.metrics, key)
    assert payload["L"] == min(payload["pinf"], payload["dinf"], payload["gap"])
    assert payload["omega"] == out.omega
    assert payload["ell"] == out.ell
    assert payload["iters"] == out.iterations == out.result.iterations
    assert payload["time_per_iter_s"] > 0.0
    # one definition: the median per-iteration wall time of the IPM
    assert payload["time_per_iter_s"] == out.result.time_per_iter_s


def test_solve_driver_unknown_method():
    with pytest.raises(ValueError):
        solve_sdp(gen_maxcut(K2), method="magic", eps=1e-8, step="adaptive")
    with pytest.raises(ValueError):
        solve_sdp(gen_maxcut(K2), method="dctc", eps=1e-8, step="giant")
