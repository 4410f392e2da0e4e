"""Tests for generators, SDPA I/O, the dense reference oracle, and the
solve driver."""

import io

import numpy as np
import pytest

from treesdp.chordal import Graph, decompose, parse_graph, sparsity_graph
from treesdp.errors import (
    DimensionMismatch,
    ParseError,
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
from util import (
    SparseSymmetric,
    dense_dimacs_metrics,
    dot_sym,
    is_partially_separable,
    make_problem,
    path_rayleigh_problem,
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


def test_solve_outcome_metrics_json_schema():
    import json

    sdp = gen_maxcut(K2)
    out = solve_sdp(sdp, method="dctc", eps=1e-8, step="adaptive")
    payload = json.loads(out.metrics_json())
    assert list(payload) == [
        "pinf",
        "dinf",
        "gap",
        "L",
        "iters",
        "time_per_iter_s",
        "omega",
        "ell",
    ]
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
