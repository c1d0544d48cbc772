"""All five workloads and the traced run at the smoke scale (<= 200 key frames)."""

import json
import os
import re

import env
import pytest
from conftest import WORKLOADS
from measure import END_TO_END, PER_LAYER, child_pids

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(smoke_records, workload):
    record = smoke_records[workload]
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert record["details"]["corpus_keyframes"] <= 200
    assert record["details"]["corpus_digest_ok"]
    for name, metric in record["metrics"].items():
        assert metric["value"] > 0, f"{name} must never be 0"
    if workload != "ann_10k":  # exact engines must equal the oracle
        assert record["metrics"]["recall_at_10"]["value"] == 1.0


def test_metric_names_equal_benchmark_json(smoke_records, traced_records, benchmark_json):
    end_to_end = [m["name"] for m in benchmark_json["end_to_end"]]
    per_layer = [m["name"] for m in benchmark_json["per_layer"]]
    assert end_to_end == list(END_TO_END)
    assert per_layer == list(PER_LAYER)
    # the driver's cap fits three workloads at a steady length; the other
    # two run by hand
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS[:3])
    for name in end_to_end + per_layer:
        assert NAME.match(name), name
    for workload in WORKLOADS:
        assert list(smoke_records[workload]["metrics"]) == end_to_end
        assert list(traced_records[workload]["metrics"]) == per_layer
    listed = benchmark_json["end_to_end"] + benchmark_json["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    assert units == {**END_TO_END, **PER_LAYER}


def test_serve_ladder_is_judged_rung_by_rung(traced_records):
    ladder = traced_records["serve_1k"]["details"]["ladder"]
    assert ladder[0]["passed"], "the reference rung must hold"
    # ascending, and nothing runs above the first failing rung
    rates = [r["rate_qps"] for r in ladder]
    assert rates == sorted(rates)
    assert all(r["passed"] for r in ladder[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_the_query(traced_records, workload):
    record = traced_records[workload]
    metrics = {n: m["value"] for n, m in record["metrics"].items()}
    assert metrics["core.search.frame_ms"] > 0
    assert metrics["features.extract_ms.gabor"] > 0
    assert -0.5 < metrics["core.search.unattributed_ratio"] < 0.9
    # a layer the workload never enters did no work; scan_10k's traced run
    # also takes its snapshot through the IVF index and the shards
    if workload in ("scan_10k", "shard_10k"):
        assert metrics["sharding.scatter_gather_ms"] > 0
        assert metrics["sharding.speedup_vs_solo"] > 0
        assert metrics["runtime.pool.roundtrip_ms"] > 0
    else:
        assert metrics["sharding.scatter_gather_ms"] == 0.0
    if workload in ("scan_10k", "ann_10k"):
        assert metrics["indexing.ann.build_s"] > 0 and metrics["indexing.ann.probe_ms"] > 0
    else:
        assert metrics["indexing.ann.probe_ms"] == 0.0
    if workload == "serve_1k":
        assert metrics["web.parse_ms"] > 0 and metrics["serving.batch_size_mean.reported"] >= 1
        assert metrics["serving.max_rate_under_slo_qps"] >= 40
    path = os.path.join(env.REPO_ROOT, record["details"]["trace_file"])
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    assert spans and {"name", "start", "end", "parent", "request_id"} <= set(spans[0])
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:  # a child lies inside its parent
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_nothing_is_left_running(smoke_records, traced_records):
    assert child_pids() == []
    leftovers = [d for d in os.listdir(env.OUT_DIR) if d.startswith("work-")]
    assert leftovers == []
