"""Smoke-scale fixtures: every workload once, plus one traced run."""

import os

import pytest

import env

env.require_repro()

import run  # noqa: E402

WORKLOADS = ("serve_1k", "library_churn", "scan_10k", "ann_10k", "shard_10k")
SMOKE = dict(seed=7, seconds=2, scale_name="smoke")


@pytest.fixture(scope="session")
def smoke_records():
    """One untraced smoke run of each workload."""
    return {w: run.run_one(w, trace=False, **SMOKE) for w in WORKLOADS}


@pytest.fixture(scope="session")
def traced_records():
    return {w: run.run_one(w, trace=True, **SMOKE) for w in WORKLOADS}


@pytest.fixture(scope="session")
def benchmark_json():
    import json

    with open(os.path.join(env.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
