"""Repeat the benchmark with different seeds and summarise its spread.

    python3 bench/steady.py --runs 10 [--first-seed 1]

Runs ``bench/run.py`` once per seed and workload of BENCHMARK.json, one
process at a time, with the run length from BENCHMARK.json, and prints
for every end-to-end metric the median of the runs and the distance
between their first and third quartiles as a share of the median, next
to the metric's bound.
The share of failed operations is printed too; it must not vary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=180
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                status = 1
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
            ), flush=True)
        print(f"{workload}: failed share {sorted(shares)}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {metric['name']:12s} median {med:.6g} {metric['unit']:7s}"
                  f" spread {spread:.4f} bound {metric['bound']}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
