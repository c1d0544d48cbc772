#!/usr/bin/env bash
# One-shot quality gate: reprolint (this codebase's own contracts) + ruff
# (generic hygiene, including the rules reprolint retired) + mypy +
# tier-1 pytest (with a coverage floor when pytest-cov is installed) +
# tests/core and
# tests/integration pinned to one CPU + the load gate + the
# end-to-end benchmark's own tests and a smoke-scale run of its read
# (scan_10k) and write (library_churn) workloads, checked against its oracle.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the pytest suite (lint/type checks only)
#
# ruff and mypy are optional dependencies.  Locally, a missing tool is
# reported as skipped; in CI (the CI environment variable is set, as on
# GitHub Actions) a missing optional tool is still a skip -- CI installs
# them via the dev extra -- but any *installed* tool that fails always
# fails the gate, and a skip is called out loudly so a broken install
# cannot silently drop a gate.

set -u
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

fast=0
[ "${1:-}" = "--fast" ] && fast=1
in_ci=${CI:+1}

gate_names=""

step() {
    printf '\n== %s ==\n' "$1"
}

# record <gate> <status: ok|FAIL|skip>
record() {
    gate_names="$gate_names $1"
    eval "status_$1=\"$2\""
}

step "reprolint (repro lint src/repro)"
if python -m repro.analysis src/repro; then
    record reprolint ok
else
    record reprolint FAIL
fi

step "ruff"
if command -v ruff >/dev/null 2>&1; then
    if ruff check src/repro; then
        record ruff ok
    else
        record ruff FAIL
    fi
else
    echo "ruff: not installed, skipped"
    record ruff skip
fi

step "mypy"
if command -v mypy >/dev/null 2>&1; then
    if mypy src/repro; then
        record mypy ok
    else
        record mypy FAIL
    fi
else
    echo "mypy: not installed, skipped"
    record mypy skip
fi

if [ "$fast" -eq 0 ]; then
    # coverage rides on the tier-1 run when pytest-cov is installed (it is
    # in the CI dev extra; the offline container may not have it) -- the
    # suite is not run twice.  COV_FLOOR is the --cov-fail-under floor.
    cov_args=""
    if python -c "import pytest_cov" >/dev/null 2>&1; then
        cov_floor="${COV_FLOOR:-70}"
        cov_args="--cov=repro --cov-report=term --cov-report=html --cov-fail-under=$cov_floor"
        echo "coverage: enabled (floor ${cov_floor}%)"
    else
        echo "coverage: pytest-cov not installed, floor skipped"
    fi

    step "pytest (tier-1)"
    # shellcheck disable=SC2086
    if python -m pytest -x -q $cov_args; then
        record pytest ok
        if [ -n "$cov_args" ]; then record coverage ok; else record coverage skip; fi
    else
        record pytest FAIL
        if [ -n "$cov_args" ]; then record coverage FAIL; else record coverage skip; fi
    fi

    # on one CPU the pool has no helper thread, so frame analysis (and a
    # query's per-feature degradation) takes its one-lane branch for real
    # (tier-1 runs it on two lanes where it can)
    step "pytest (core + integration + resilience on one CPU, taskset -c 0)"
    if command -v taskset >/dev/null 2>&1; then
        if taskset -c 0 python -m pytest -q tests/core tests/integration tests/resilience; then
            record one_cpu ok
        else
            record one_cpu FAIL
        fi
    else
        echo "taskset: not installed, skipped"
        record one_cpu skip
    fi

    step "pytest (observability group)"
    if python -m pytest -q tests/obs tests/web/test_obs_endpoints.py; then
        record obs_tests ok
    else
        record obs_tests FAIL
    fi

    step "observability overhead (instrumented vs disabled)"
    if python scripts/check_obs_overhead.py; then
        record obs_overhead ok
    else
        record obs_overhead FAIL
    fi

    # SLO under concurrent clients, solo and sharded, then a burst that must
    # shed with 429 + Retry-After and reconcile with the shed counter (~6 s)
    step "load gate (scripts/load_gate.py)"
    load_gate_dir=$(mktemp -d)
    if python scripts/load_gate.py --artifact-dir "$load_gate_dir"; then
        record load_gate ok
    else
        record load_gate FAIL
    fi
    rm -rf "$load_gate_dir"

    step "pytest (benchmarks/e2e/tests, smoke scale)"
    if python -m pytest benchmarks/e2e/tests -q; then
        record bench_tests ok
    else
        record bench_tests FAIL
    fi

    # the blocked kernels, the fused gather and the clip path (scan_10k),
    # then ingest beside reads (library_churn), against the benchmark's own
    # oracle (each exits non-zero on a failed check or query)
    step "benchmark smoke (scan_10k, library_churn --scale smoke)"
    if python3 benchmarks/e2e/run.py --workload scan_10k --scale smoke --seconds 2 \
        && python3 benchmarks/e2e/run.py --workload library_churn --scale smoke --seconds 2; then
        record bench_smoke ok
    else
        record bench_smoke FAIL
    fi
else
    record pytest skip
    record coverage skip
    record one_cpu skip
    record obs_tests skip
    record obs_overhead skip
    record load_gate skip
    record bench_tests skip
    record bench_smoke skip
fi

# -- summary: one line per gate, plus the one-line table ---------------------
step "summary"
failures=0
skips=0
summary_line=""
for gate in $gate_names; do
    eval "status=\$status_$gate"
    printf '%-10s %s\n' "$gate" "$status"
    summary_line="$summary_line $gate=$status"
    [ "$status" = "FAIL" ] && failures=$((failures + 1))
    [ "$status" = "skip" ] && skips=$((skips + 1))
done
printf 'gates:%s\n' "$summary_line"

if [ -n "$in_ci" ] && [ "$skips" -gt 0 ] && [ "$fast" -eq 0 ]; then
    echo "warning: $skips optional gate(s) skipped in CI (tool not installed)"
fi

if [ "$failures" -eq 0 ]; then
    echo "all checks passed"
else
    echo "$failures check(s) FAILED"
fi
exit "$failures"
