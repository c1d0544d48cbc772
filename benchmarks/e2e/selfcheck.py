#!/usr/bin/env python3
"""Run every workload twice and hold the difference against the bounds.

    python3 benchmarks/e2e/selfcheck.py [--seed 2012] [--seconds 24] [--pairs 1] [--all]

Two rounds of the same code, the second in reverse workload order.  For
each end-to-end metric the relative difference between the two runs is
printed beside the bound committed in ``BENCHMARK.json``; any difference
above its bound fails the check.  This is where the committed bounds come
from: a bound the seed commit cannot hold against itself is no bound.
When one does not hold, give that workload more rounds (or lower its tail
percentile) rather than widen the bound.  ``--all`` adds the two workloads
that run by hand only (``ann_10k``, ``shard_10k``).

The sandbox has minutes in which it runs 15-30 % slower, and one such
minute inside one of two runs can fail a pair.  ``--pairs N`` runs 2N
times in alternating order and compares the median of the odd runs with
the median of the even ones -- the driver's own method, at N = 10.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, Optional, Sequence

import env

#: in ``plan.WORKLOADS`` but not in ``BENCHMARK.json`` (``README.md`` says why)
HAND_RUN = ("ann_10k", "shard_10k")


def load_benchmark() -> Dict[str, object]:
    with open(os.path.join(env.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(command: Sequence[str], workload: str, args: argparse.Namespace) -> Dict[str, float]:
    full = list(command) + [
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale,
    ]
    done = subprocess.run(
        full, cwd=env.REPO_ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"selfcheck: {workload} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def relative_difference(a: float, b: float) -> float:
    low, high = sorted((abs(a), abs(b)))
    return high / low - 1.0 if low > 0 else float("inf")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--scale", default="bench")
    parser.add_argument("--pairs", type=int, default=1,
                        help="runs per side; each side reports its median")
    parser.add_argument("--all", action="store_true",
                        help="also the hand-run workloads (ann_10k, shard_10k)")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.all:
        workloads += [w for w in HAND_RUN if w not in workloads]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sides = ({w: [] for w in workloads}, {w: [] for w in workloads})
    for i in range(2 * args.pairs):
        for workload in workloads if i % 2 == 0 else reversed(workloads):
            print(f"run {i + 1}: {workload} ...", flush=True)
            sides[i % 2][workload].append(run_once(bench["command"], workload, args))

    failures = 0
    for workload in workloads:
        print(f"== {workload} (seed {args.seed}, median of {args.pairs} per side)")
        for name, bound in bounds.items():
            first, second = (
                statistics.median(run[name] for run in side[workload]) for side in sides
            )
            diff = relative_difference(first, second)
            verdict = "ok" if diff <= bound else "EXCEEDS"
            failures += verdict != "ok"
            print(
                f"  {name:30s} {first:12.4f} {second:12.4f}  "
                f"diff {100 * diff:6.2f} %  bound {100 * bound:5.1f} %  {verdict}"
            )
    print("selfcheck", "FAILED" if failures else "passed", f"({failures} over their bound)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
