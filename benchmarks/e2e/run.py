#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload scan_10k            # one workload
    python3 benchmarks/e2e/run.py --workload all                 # all five
    python3 benchmarks/e2e/run.py --workload scan_10k --trace 1  # per-layer run

Prints every metric by name with its unit, checks the returned rankings
against the benchmark's own oracle, and exits non-zero when a check
fails.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``README.md``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up counts from the first line that runs

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import env  # noqa: E402

env.require_repro()

import layers  # noqa: E402
import plan  # noqa: E402
import workloads  # noqa: E402
from measure import END_TO_END, PER_LAYER, REPORT_ONLY, close_facts, run_facts  # noqa: E402


def run_one(
    workload: str,
    seed: int,
    seconds: int,
    trace: bool,
    scale_name: str = "bench",
    keyframes: Optional[int] = None,
    t_start: Optional[float] = None,
) -> Dict[str, object]:
    """Run ``workload`` once; returns the full record (also written to ``out/``)."""
    os.makedirs(env.OUT_DIR, exist_ok=True)
    facts = run_facts(seed)
    work_dir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=env.OUT_DIR)
    ctx = workloads.Context(
        workload=workload,
        scale_name=scale_name,
        seed=seed,
        seconds=seconds,
        work_dir=work_dir,
        t_start=time.perf_counter() if t_start is None else t_start,
        keyframes=keyframes,
    )
    try:
        outcome = (layers.TRACE if trace else workloads.RUN)[workload](ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    close_facts(facts)

    units = PER_LAYER if trace else END_TO_END
    metrics = {name: float(outcome.metrics.get(name, 0.0)) for name in units}
    outcome.details["failed_ratio"] = outcome.failed / max(1, outcome.attempted)
    record = {
        "workload": workload,
        "scale": scale_name,
        "seconds": seconds,
        "traced": trace,
        "facts": facts,
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "verify_s": outcome.verify_s,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "details": outcome.details,
    }
    name = f"{'layers' if trace else 'result'}-{workload}.json"
    with open(os.path.join(env.OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    return record


def report(record: Dict[str, object]) -> None:
    """The human-readable part: every metric by name, with its unit."""
    facts = record["facts"]
    print(
        f"== {record['workload']}  scale={record['scale']} seed={facts['seed']} "
        f"seconds={record['seconds']} traced={int(record['traced'])}  "
        f"({facts['nproc']} x {facts['cpu_model']}, python {facts['python']}, "
        f"numpy {facts['numpy']}, load {facts['load_1min_start']}"
        f"->{facts['load_1min_end']}{', NOISY' if facts['noisy'] else ''})"
    )
    for name, metric in record["metrics"].items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    details = record["details"]
    for name, unit in REPORT_ONLY.items():
        if name in details:
            print(f"{name:42s} {details[name]:14.4f} {unit}")
    print(f"{'verify_s':42s} {record['verify_s']:14.4f} s")
    for rung in details.get("ladder", ()):
        print(
            f"  rung {rung['rate_qps']:5.0f} qps: sent {rung['sent']} ok {rung['ok']} "
            f"refused {rung['refused']} achieved {rung['achieved_qps']:.1f} qps "
            f"p50 {rung['p50_ms']:.1f} p95 {rung['p95_ms']:.1f} ms "
            f"late p95 {rung['lateness_p95_ms']:.2f} ms -> "
            f"{'pass' if rung['passed'] else 'FAIL'}"
        )
    for key in ("corpus_keyframes", "corpus_pinned", "corpus_digest_ok", "ladder_interior",
                "trace_file"):
        if key in details:
            print(f"  {key} = {details[key]}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(
        f"  attempted {record['attempted']}  failed {record['failed']}  "
        f"correct {record['correct']}"
    )


def last_line(record: Dict[str, object]) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=plan.CORPUS_SEED)
    parser.add_argument("--seconds", type=int, default=24,
                        help="length of the measured region: picks how many times "
                             "the fixed round runs (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the stage-by-stage per-layer run")
    parser.add_argument("--scale", choices=sorted(plan.SCALES), default="bench",
                        help="corpus rung: bench (committed), full (the issue's "
                             "sizes, by hand), smoke (tests)")
    parser.add_argument("--keyframes", type=int, default=None,
                        help="size of the feat corpus, e.g. 100000 for a hand-run rung")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")

    names: List[str] = list(plan.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    record = None
    for i, name in enumerate(names):
        record = run_one(
            name, args.seed, args.seconds, bool(args.trace), args.scale, args.keyframes,
            t_start=_T_START if i == 0 else None,
        )
        report(record)
        if not record["correct"]:
            status = 1
    # one object, last: what the driver reads (of the last workload under "all")
    print(last_line(record))
    return status


if __name__ == "__main__":
    sys.exit(main())
