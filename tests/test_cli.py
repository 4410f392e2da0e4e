"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import subprocess
import sys

import pytest

from treesdp.cli import main
from treesdp.frontends import read_sdpa

K2_GRAPH = "2 1\n1 2\n"
PATH5_GRAPH = "5 4\n1 2\n2 3\n3 4\n4 5\n"


@pytest.fixture
def k2_file(tmp_path):
    p = tmp_path / "k2.txt"
    p.write_text(K2_GRAPH)
    return p


@pytest.fixture
def path5_file(tmp_path):
    p = tmp_path / "path5.txt"
    p.write_text(PATH5_GRAPH)
    return p


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_maxcut_writes_parseable_file(k2_file, tmp_path, capsys):
    out = tmp_path / "k2.dat-s"
    assert main(["generate", "maxcut", "--graph", str(k2_file),
                 "-o", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    sdp = read_sdpa(out)
    assert sdp.n == 2
    assert sdp.m == 2  # one diagonal row per vertex, no edge inequalities


def test_generate_maxkcut_k3_has_edge_inequality(k2_file, tmp_path):
    out = tmp_path / "k2c3.dat-s"
    assert main(["generate", "maxkcut", "--graph", str(k2_file), "--k", "3",
                 "-o", str(out)]) == 0
    sdp = read_sdpa(out)
    assert sdp.m == 3
    assert sdp.senses.count("ge") == 1


def test_generate_k_rejected_outside_maxkcut(k2_file, tmp_path, capsys):
    out = tmp_path / "x.dat-s"
    assert main(["generate", "maxcut", "--graph", str(k2_file), "--k", "3",
                 "-o", str(out)]) == 2
    assert main(["generate", "theta", "--graph", str(k2_file), "--k", "3",
                 "-o", str(out)]) == 2
    assert main(["generate", "maxkcut", "--graph", str(k2_file), "--k", "1",
                 "-o", str(out)]) == 2
    assert "--k" in capsys.readouterr().err


def test_generate_missing_graph_file_is_usage_error(tmp_path, capsys):
    rc = main(["generate", "maxcut", "--graph", str(tmp_path / "nope.txt"),
               "-o", str(tmp_path / "x.dat-s")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_path_graph_reports_width_two(path5_file, capsys):
    assert main(["decompose", "--graph", str(path5_file)]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    stats = dict(zip(header[0::2], header[1::2]))
    assert stats["n"] == "5"
    assert stats["m"] == "4"
    assert stats["omega"] == "2"
    assert stats["ell"] == "4"
    assert float(stats["time_s"]) >= 0.0
    # one dump line per bag: "j p(j) |J_j| : members"
    bag_lines = out.splitlines()[1:]
    assert len(bag_lines) == 4
    assert all(":" in line for line in bag_lines)


def test_decompose_with_permutation_file(path5_file, tmp_path, capsys):
    perm = tmp_path / "perm.txt"
    perm.write_text("1 2 3 4 5\n")
    assert main(["decompose", "--graph", str(path5_file),
                 "--perm", str(perm)]) == 0
    assert "omega 2" in capsys.readouterr().out


def test_decompose_bad_permutation_is_usage_error(path5_file, tmp_path,
                                                  capsys):
    perm = tmp_path / "perm.txt"
    perm.write_text("1 2 3 4 4\n")
    assert main(["decompose", "--graph", str(path5_file),
                 "--perm", str(perm)]) == 2
    assert "permutation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _generate(tmp_path, kind, graph_text, *extra):
    g = tmp_path / "g.txt"
    g.write_text(graph_text)
    prob = tmp_path / "prob.dat-s"
    rc = main(["generate", kind, "--graph", str(g), "-o", str(prob), *extra])
    assert rc == 0
    return prob


def test_solve_generated_maxcut_k2(tmp_path, capsys):
    prob = _generate(tmp_path, "maxcut", K2_GRAPH)
    assert main(["solve", str(prob)]) == 0
    out = capsys.readouterr().out
    metrics = json.loads(out.strip().splitlines()[-1])
    assert metrics["gap"] >= 6.0
    assert metrics["L"] >= 6.0
    assert metrics["omega"] == 2
    # the same JSON is written next to the input
    on_disk = json.loads((tmp_path / "prob.metrics.json").read_text())
    assert on_disk == metrics
    # the solution factor file round-trips through the documented header
    sol_lines = (tmp_path / "prob.sol").read_text().splitlines()
    n, r = map(int, sol_lines[0].split())
    assert n == 2 and 1 <= r <= 2 and len(sol_lines) == 1 + n


def test_solve_explicit_output_paths_and_methods(tmp_path, capsys):
    prob = _generate(tmp_path, "theta", PATH5_GRAPH)
    sol = tmp_path / "out.factor"
    met = tmp_path / "out.json"
    rc = main(["solve", str(prob), "--method", "dctc-aux", "--step",
               "adaptive", "--eps", "1e-8", "--solution", str(sol),
               "--metrics", str(met)])
    assert rc == 0
    assert sol.exists() and met.exists()
    metrics = json.loads(met.read_text())
    assert metrics["L"] >= 5.0
    assert metrics["ell"] >= 1


def test_solve_diag_streams_pattern_lines(tmp_path, capsys):
    # the dense baseline streams the block-tree engine's keys
    prob = _generate(tmp_path, "maxcut", PATH5_GRAPH)
    keys = {}
    for method in ("ctc", "dctc"):
        assert main(["solve", str(prob), "--method", method, "--diag"]) == 0
        err_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        assert err_lines
        keys[method] = set(json.loads(err_lines[0]))
    assert {"iteration", "mu", "blocks", "groups", "fill_blocks",
            "flops_estimate", "bytes", "sweep_steps",
            "stacked_groups"} <= keys["dctc"]
    assert keys["ctc"] == keys["dctc"]


def test_solve_infeasible_problem_exits_one(tmp_path, capsys):
    prob = tmp_path / "infeas.dat-s"
    prob.write_text(
        "2\n1\n1\n1.0 -1.0\n1 1 1 1 1.0\n2 1 1 1 1.0\n"
    )
    assert main(["solve", str(prob)]) == 1
    assert "InfeasibleOrUnbounded" in capsys.readouterr().err


def test_solve_malformed_file_is_parse_error(tmp_path, capsys):
    prob = tmp_path / "bad.dat-s"
    prob.write_text("1\n1\n1\n1.0\n0 1 1 oops 2.0\n")
    assert main(["solve", str(prob)]) == 2
    assert "line 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_two(capsys):
    assert main(["solve", "prob.dat-s", "--frobnicate"]) == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["transmogrify"]) == 2


def test_no_arguments_exits_two(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def test_module_invocation_round_trip(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text(K2_GRAPH)
    prob = tmp_path / "prob.dat-s"
    gen = subprocess.run(
        [sys.executable, "-m", "treesdp.cli", "generate", "maxcut",
         "--graph", str(g), "-o", str(prob)],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0
    run = subprocess.run(
        [sys.executable, "-m", "treesdp.cli", "solve", str(prob)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    metrics = json.loads(run.stdout.strip().splitlines()[-1])
    assert metrics["gap"] >= 6.0
