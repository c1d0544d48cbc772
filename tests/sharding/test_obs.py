"""Distributed observability across the scatter-gather engine.

One sharded query must leave ONE stitched trace: the coordinator's root
with the scatter span whose children are the per-shard scoring subtrees
(trace/parent ids consistent all the way down), worker metrics must
surface shard-labeled in the coordinator registry with per-shard counts
matching the coordinator's own dispatch counters, and the explain
payload must account for every shard dispatched.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.obs import Obs
from repro.resilience import ResiliencePolicies
from repro.sharding import ShardedSearchEngine

N_SHARDS = 4


def _find(node, name):
    out = []
    if node["name"] == name:
        out.append(node)
    for child in node.get("children", ()):
        out.extend(_find(child, name))
    return out


def _counter_samples(text, family):
    pattern = re.compile(
        re.escape(family) + r'\{shard="(\d+)"(?:,(\w+)="([^"]*)")?\} (\S+)'
    )
    out = {}
    for line in text.splitlines():
        m = pattern.match(line)
        if m:
            out.setdefault(m.group(1), {})[m.group(3)] = float(m.group(4))
    return out


@pytest.fixture()
def obs_engine(ingested_system, shard_paths):
    obs = Obs(enabled=True, slow_query_ms=0.0001, slow_log_size=8)
    engine = ShardedSearchEngine(ingested_system.config, shard_paths, obs=obs)
    yield engine, obs
    engine.close()


@pytest.fixture(scope="module")
def query_vectors(ingested_system):
    frame = ingested_system.any_key_frame()
    return {n: ingested_system.engine.extractors[n].extract(frame) for n in ("sch", "tamura")}


class TestStitchedTrace:
    def test_one_trace_with_per_shard_subtrees(self, obs_engine, query_vectors):
        engine, obs = obs_engine
        engine.query_with_vectors(query_vectors, top_k=10)
        (trace,) = obs.recent_traces()
        (scatter,) = _find(trace, "search.scatter")
        subtrees = [
            c for c in scatter["children"] if c["name"] == "shard.score_vectors"
        ]
        assert len(subtrees) == N_SHARDS
        shards = sorted(c["attrs"]["shard"] for c in subtrees)
        assert shards == list(range(N_SHARDS))
        for sub in subtrees:
            assert sub["trace_id"] == trace["trace_id"]
            assert sub["parent_id"] == scatter["span_id"]
            # worker-side detail survives the wire
            features = [
                g["attrs"]["feature"]
                for g in sub["children"]
                if g["name"] == "shard.distance"
            ]
            assert features == ["sch", "tamura"]

    def test_video_query_stitches_too(self, obs_engine, ingested_system):
        engine, obs = obs_engine
        frames = ingested_system.get_video_frames(1)
        engine.query_video(frames[:3], top_k=3)
        trace = obs.recent_traces()[0]
        (scatter,) = _find(trace, "search.scatter")
        # a clip rides the one scoring task: a query per key frame
        subtrees = [
            c for c in scatter["children"] if c["name"] == "shard.score_vectors"
        ]
        assert len(subtrees) == N_SHARDS
        assert all(c["trace_id"] == trace["trace_id"] for c in subtrees)
        assert len({c["attrs"]["queries"] for c in subtrees}) == 1
        assert not _find(trace, "shard.score_video")

    def test_degraded_shard_marked_in_trace(
        self, ingested_system, shard_paths, query_vectors
    ):
        obs = Obs(enabled=True)
        engine = ShardedSearchEngine(
            ingested_system.config, shard_paths, obs=obs,
            policies=ResiliencePolicies(fault_spec="shard.query:once", obs=obs),
        )
        try:
            results = engine.query_with_vectors(query_vectors, top_k=10)
        finally:
            engine.close()
        assert results.degraded_shards == [0]
        (trace,) = [
            t for t in obs.recent_traces()
            if t["name"] == "search.query_vectors"
        ]
        (scatter,) = _find(trace, "search.scatter")
        assert scatter["attrs"]["degraded_shards"] == "0"
        (marker,) = _find(scatter, "shard.degraded")
        assert marker["status"] == "error"
        assert marker["attrs"]["shard"] == 0
        assert marker["trace_id"] == trace["trace_id"]
        ok = [
            c["attrs"]["shard"]
            for c in scatter["children"]
            if c["name"] == "shard.score_vectors"
        ]
        assert sorted(ok) == [1, 2, 3]


class TestFleetMetrics:
    def test_shard_labeled_counts_match_coordinator(
        self, obs_engine, query_vectors
    ):
        engine, obs = obs_engine
        # distinct top_k values: identical queries would hit the result
        # cache after the first and never reach the shards
        for top_k in (5, 6, 7):
            engine.query_with_vectors(query_vectors, top_k=top_k)
        text = obs.registry.render_text()
        worker = _counter_samples(text, "repro_worker_queries_total")
        coord = _counter_samples(text, "repro_shard_queries_total")
        assert sorted(worker) == [str(s) for s in range(N_SHARDS)]
        for shard in worker:
            assert worker[shard]["vectors"] == coord[shard]["ok"] == 3.0

    def test_worker_histograms_surface_per_shard(self, obs_engine, query_vectors):
        engine, obs = obs_engine
        engine.query_with_vectors(query_vectors, top_k=5)
        text = obs.registry.render_text()
        for shard in range(N_SHARDS):
            assert f'repro_worker_query_seconds_count{{shard="{shard}"' in text
            assert f'repro_worker_rows_scored_count{{shard="{shard}"}} 1' in text

    def test_close_drains_residual_deltas(self, ingested_system, shard_paths):
        obs = Obs(enabled=True)
        engine = ShardedSearchEngine(ingested_system.config, shard_paths, obs=obs)
        query = ingested_system.any_key_frame()
        engine.query_frame(query, top_k=5)
        engine.close()
        text = obs.registry.render_text()
        drains = _counter_samples(text, "repro_worker_metric_drains_total")
        assert sorted(drains) == [str(s) for s in range(N_SHARDS)]

    def test_disabled_obs_ships_no_telemetry(self, ingested_system, shard_paths):
        engine = ShardedSearchEngine(ingested_system.config, shard_paths)
        try:
            results = engine.query_frame(ingested_system.any_key_frame(), top_k=5)
        finally:
            engine.close()
        assert results.explain is not None  # explain is independent of obs


class TestExplain:
    def test_per_shard_accounting(self, obs_engine, query_vectors):
        engine, _ = obs_engine
        results = engine.query_with_vectors(query_vectors, top_k=10)
        explain = results.explain
        assert explain["kind"] == "vectors"
        sharded = explain["sharded"]
        assert sharded["shards"] == N_SHARDS
        assert sharded["dispatched"] == N_SHARDS
        assert sharded["merge_ms"] >= 0
        per_shard = sharded["per_shard"]
        assert [p["shard"] for p in per_shard] == list(range(N_SHARDS))
        assert all(p["status"] == "ok" for p in per_shard)
        assert sum(p["candidates"] for p in per_shard) == results.n_candidates

    def test_degraded_shard_reported(
        self, ingested_system, shard_paths, query_vectors
    ):
        engine = ShardedSearchEngine(
            ingested_system.config, shard_paths,
            policies=ResiliencePolicies(fault_spec="shard.query:once"),
        )
        try:
            results = engine.query_with_vectors(query_vectors, top_k=10)
        finally:
            engine.close()
        explain = results.explain
        assert explain["degraded_shards"] == [0]
        by_shard = {p["shard"]: p for p in explain["sharded"]["per_shard"]}
        assert by_shard[0]["status"] == "error"
        assert "error" in by_shard[0]
        assert all(by_shard[s]["status"] == "ok" for s in (1, 2, 3))

    def test_frame_query_cache_markers(self, ingested_system, shard_paths):
        cfg = replace(ingested_system.config, query_cache_size=4)
        engine = ShardedSearchEngine(cfg, shard_paths, obs=Obs(enabled=True))
        try:
            query = ingested_system.any_key_frame()
            first = engine.query_frame(query, top_k=5)
            second = engine.query_frame(query, top_k=5)
        finally:
            engine.close()
        assert first.explain["cache"] == "miss"
        assert second.explain["cache"] == "hit"
        assert second.explain["sharded"]["dispatched"] == N_SHARDS
        assert second.explain["total_ms"] < first.explain["total_ms"]


class TestSlowLogIntegration:
    def test_sharded_query_lands_in_slow_log(self, obs_engine, query_vectors):
        engine, obs = obs_engine
        engine.query_with_vectors(query_vectors, top_k=5)
        entries = obs.slow_log.recent()
        assert entries
        entry = entries[0]
        assert entry["kind"] == "vectors"
        assert entry["trace_id"] == obs.recent_traces()[0]["trace_id"]
        assert entry["explain"]["sharded"]["dispatched"] == N_SHARDS
