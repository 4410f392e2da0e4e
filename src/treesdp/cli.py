"""Command-line interface.

Subcommands
-----------
generate
    Build a relaxation (``maxcut``, ``maxkcut``, or ``theta``) from a graph
    edge-list file and write it in SDPA sparse format.
decompose
    Read a graph, run the tree decomposition, and print its statistics
    (``n m ell omega time_s``) followed by the per-bag dump
    ``j p(j) |J_j| : members`` (1-based).
solve
    Read an SDPA sparse file, run the conversion + interior-point pipeline,
    write the low-rank solution factor and a metrics JSON file, and print
    the metrics JSON on stdout.  ``--diag`` additionally streams one JSON
    line per iteration to stderr: its number and mu, then the normal
    matrix's block-pattern statistics, which the engine reads off its
    static structure and so are the same on every line.

Exit codes: 0 success; 1 solver failure; 2 usage or input-parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .chordal import (
    decompose,
    format_decomposition,
    parse_graph,
    parse_permutation,
)
from .errors import (
    ParseError,
    TreeSdpError,
    UnsupportedBlockStructure,
)
from .frontends import (
    METHODS,
    STEPS,
    gen_lovasz_theta,
    gen_maxkcut,
    parse_weighted_graph,
    read_sdpa,
    solve_sdp,
    write_sdpa,
)

GENERATORS = ("maxcut", "maxkcut", "theta")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesdp",
        description="Sparse SDP solver with dualized clique-tree conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="generate a relaxation and write SDPA sparse format"
    )
    gen.add_argument("kind", choices=GENERATORS)
    gen.add_argument(
        "--graph", required=True, help="edge-list file: 'n m' then 'u v [w]'"
    )
    gen.add_argument(
        "--k",
        type=int,
        default=None,
        help="number of parts for maxkcut (default 2)",
    )
    gen.add_argument(
        "-o", "--output", required=True, help="output .dat-s path"
    )
    gen.set_defaults(func=_cmd_generate)

    dec = sub.add_parser(
        "decompose", help="print tree-decomposition statistics for a graph"
    )
    dec.add_argument("--graph", required=True, help="edge-list file")
    dec.add_argument(
        "--perm",
        default=None,
        help="optional elimination order file (1-based permutation)",
    )
    dec.set_defaults(func=_cmd_decompose)

    sol = sub.add_parser(
        "solve", help="solve an SDPA sparse file end to end"
    )
    sol.add_argument("problem", help="input .dat-s file")
    sol.add_argument("--method", choices=METHODS, default="dctc")
    sol.add_argument("--eps", type=float, default=1e-8)
    sol.add_argument("--step", choices=STEPS, default="adaptive")
    sol.add_argument(
        "--diag",
        action="store_true",
        help="stream per-iteration mu and block-pattern JSON lines to stderr",
    )
    sol.add_argument(
        "--solution",
        default=None,
        help="solution factor output path (default: input with .sol suffix)",
    )
    sol.add_argument(
        "--metrics",
        default=None,
        help="metrics JSON output path (default: input with "
        ".metrics.json suffix)",
    )
    sol.set_defaults(func=_cmd_solve)
    return parser


def _cmd_generate(args) -> int:
    text = Path(args.graph).read_text()
    graph, weights = parse_weighted_graph(text)
    if args.kind == "theta":
        if args.k is not None:
            print("error: --k only applies to maxkcut", file=sys.stderr)
            return 2
        sdp = gen_lovasz_theta(graph)
    elif args.kind == "maxcut":
        if args.k is not None:
            print("error: --k only applies to maxkcut", file=sys.stderr)
            return 2
        sdp = gen_maxkcut(graph, 2, weights)
    else:
        k = 2 if args.k is None else args.k
        if k < 2:
            print(f"error: --k must be at least 2, got {k}", file=sys.stderr)
            return 2
        sdp = gen_maxkcut(graph, k, weights)
    write_sdpa(sdp, args.output)
    print(f"wrote {args.output}: n={sdp.n} m={sdp.m}")
    return 0


def _cmd_decompose(args) -> int:
    graph = parse_graph(Path(args.graph).read_text())
    order = None
    if args.perm is not None:
        order = parse_permutation(Path(args.perm).read_text(), graph.n)
    t0 = time.perf_counter()
    td = decompose(graph, order)
    elapsed = time.perf_counter() - t0
    print(
        f"n {graph.n} m {graph.m} ell {td.ell} omega {td.omega} "
        f"time_s {elapsed:.6f}"
    )
    sys.stdout.write(format_decomposition(td))
    return 0


def _cmd_solve(args) -> int:
    in_path = Path(args.problem)
    sdp = read_sdpa(in_path)
    outcome = solve_sdp(sdp, method=args.method, eps=args.eps, step=args.step)
    if args.diag:
        for rec in outcome.result.records:
            line = {"iteration": rec.iteration, "mu": rec.mu}
            print(json.dumps({**line, **outcome.pattern}), file=sys.stderr)
    sol_path = (
        Path(args.solution)
        if args.solution is not None
        else in_path.with_suffix(".sol")
    )
    met_path = (
        Path(args.metrics)
        if args.metrics is not None
        else in_path.with_suffix(".metrics.json")
    )
    outcome.factor.write(sol_path)
    payload = outcome.metrics_json()
    met_path.write_text(payload + "\n")
    print(
        f"status {outcome.status} iterations {outcome.iterations} "
        f"solution {sol_path} metrics {met_path}",
        file=sys.stderr,
    )
    print(payload)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ParseError, UnsupportedBlockStructure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TreeSdpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
