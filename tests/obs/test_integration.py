"""System-level observability: metrics(), traces, cache counters, stats."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.obs import NULL_OBS, format_stats
from repro.video.generator import VideoSpec, generate_video


def _video(seed, category="news"):
    return generate_video(
        VideoSpec(category=category, seed=seed, n_shots=2, frames_per_shot=4)
    )


@pytest.fixture()
def system():
    s = VideoRetrievalSystem.in_memory(SystemConfig(workers=1))
    s.login_admin().add_video(_video(41))
    yield s
    s.close()


class TestMetricsSurface:
    def test_sections_and_registry(self, system):
        system.search(system.any_key_frame(), top_k=3)
        m = system.metrics()
        assert set(m) == {
            "store", "index", "ann", "cache", "snapshot", "sharding",
            "resilience", "slow_log", "registry",
        }
        assert m["slow_log"]["recorded_total"] == 0  # 500ms default: untripped
        assert m["sharding"] is None  # default config: single store
        assert m["store"]["videos"] == 1
        assert m["store"]["key_frames"] == len(system._store)
        assert m["index"]["entries"] == m["store"]["key_frames"]
        assert m["ann"] is None  # default config: ANN off
        # one cold frame query is one lookup (keyed on the pixels), one miss
        assert m["cache"]["misses"] == 1
        assert m["cache"]["entries"] == 1
        reg = m["registry"]
        assert reg["repro_ingest_videos_total"]["samples"][0]["value"] == 1.0
        # ANN families are registered (at zero) even when disabled
        assert reg["repro_ann_probes_total"]["samples"] == []

    def test_shims_agree_with_metrics(self, system):
        m = system.metrics()
        assert system.cache_stats() == m["cache"]
        assert system.ann_stats() == m["ann"]
        assert system.index_stats().n_entries == m["index"]["entries"]

    def test_ann_section_when_enabled(self):
        s = VideoRetrievalSystem.in_memory(
            SystemConfig(workers=1, ann=True, ann_cells=3, query_cache_size=0)
        )
        s.login_admin().add_video(_video(42))
        s.search(s.any_key_frame(), top_k=2, use_index=False)
        m = s.metrics()
        assert m["ann"]["builds"] >= 1
        assert m["ann"]["probes"] >= 1
        s.close()

    def test_recent_traces_capture_request_tree(self, system):
        system.search(system.any_key_frame(), top_k=3)
        traces = system.recent_traces()
        names = [t["name"] for t in traces]
        assert names[0] == "search.query_frame"
        assert "ingest.add_video" in names
        search = traces[0]
        child_names = {c["name"] for c in search["children"]}
        assert "search.index.prune" in child_names
        assert "search.extract" in child_names
        ingest = traces[names.index("ingest.add_video")]
        stages = {c["name"] for c in ingest["children"]}
        assert {"ingest.encode", "ingest.keyframes", "ingest.motion",
                "ingest.features", "ingest.db_txn", "ingest.mirror"} <= stages

    def test_ingest_stages_close_the_books(self):
        s = VideoRetrievalSystem.in_memory(SystemConfig(workers=1))
        admin = s.login_admin()
        for seed in (51, 52, 53):
            admin.add_video(_video(seed))
        reg = s.metrics()["registry"]
        samples = reg["repro_ingest_stage_seconds"]["samples"]
        # motion is a stage like the rest: timed once per video
        assert {x["labels"]["stage"]: x["count"] for x in samples}["motion"] == 3
        for trace in s.recent_traces():
            assert trace["name"] == "ingest.add_video"
            assert "ingest.motion" in {c["name"] for c in trace["children"]}
        # and with it the stages account for the ingest: over the three videos
        # together (a wall-clock ratio, so a floor a scheduler stall between
        # two stages cannot reach), never more than the whole
        staged = sum(x["sum"] for x in samples)
        total = reg["repro_ingest_video_seconds"]["samples"][0]["sum"]
        assert 0.8 * total <= staged <= total
        s.close()

    def test_clip_query_is_traced_stage_by_stage(self, system):
        system.search_by_video(_video(45), top_k=1)
        trace = system.recent_traces()[0]
        assert trace["name"] == "search.query_video"
        assert [c["name"] for c in trace["children"]] == [
            "search.video.keyframes", "search.video.extract",
            "search.video.distance", "search.video.dp",
        ]
        covered = sum(c["duration_ms"] for c in trace["children"])
        assert covered <= trace["duration_ms"]
        reg = system.metrics()["registry"]
        timed = {
            s["labels"]["feature"]: s["count"]
            for s in reg["repro_search_distance_seconds"]["samples"]
        }
        assert timed == {name: 1 for name in system.config.features}
        assert reg["repro_search_fusion_seconds"]["samples"][0]["count"] == 1

    def test_trace_buffer_respects_config(self):
        s = VideoRetrievalSystem.in_memory(
            SystemConfig(workers=1, obs_trace_buffer=2, query_cache_size=0)
        )
        s.login_admin().add_video(_video(43))
        for _ in range(4):
            s.search(s.any_key_frame(), top_k=1)
        assert len(s.recent_traces()) == 2
        s.close()


class TestCacheCountersAcrossInvalidation:
    def test_hit_miss_invalidation_flow(self, system):
        query = system.any_key_frame()
        system.search(query, top_k=3)  # cold: one miss
        system.search(query, top_k=3)  # warm: one hit
        assert system.cache_stats()["hits"] == 1
        assert system.cache_stats()["misses"] == 1

        # ingest bumps the store generation: next lookup drops the cache
        system.login_admin().add_video(_video(44, category="sports"))
        system.search(query, top_k=3)  # invalidation + cold miss
        stats = system.cache_stats()
        assert stats == {
            "entries": 1, "hits": 1, "misses": 2,
            "invalidations": 1, "evictions": 0,
        }

        reg = system.metrics()["registry"]
        samples = {
            tuple(s["labels"].items()): s["value"]
            for s in reg["repro_cache_requests_total"]["samples"]
        }
        assert samples[(("result", "hit"),)] == 1.0
        assert samples[(("result", "miss"),)] == 2.0
        assert reg["repro_cache_invalidations_total"]["samples"][0]["value"] == 1.0


class TestDisabledSystem:
    def test_disabled_system_records_nothing(self):
        s = VideoRetrievalSystem.in_memory(
            SystemConfig(workers=1, obs_enabled=False)
        )
        s.login_admin().add_video(_video(45))
        s.search(s.any_key_frame(), top_k=2)
        assert s.metrics()["registry"] == {}
        assert s.recent_traces() == []
        # the engine's handles are the shared null objects: the disabled
        # path costs one no-op call per instrumentation point
        assert s._engine._obs.registry is NULL_OBS.registry
        assert s._engine._obs.span("x") is NULL_OBS.span("y")
        # counters still work (plain python attributes, not the registry)
        assert s.cache_stats()["misses"] == 1
        s.close()


class TestStatsRendering:
    def test_format_stats_renders_live_snapshot(self, system):
        system.search(system.any_key_frame(), top_k=3)
        text = format_stats(system.metrics())
        assert "store    videos=1" in text
        assert "ann      (disabled)" in text
        assert "repro_ingest_videos_total" in text
        assert "repro_search_queries_total" in text

    def test_format_stats_handles_empty_registry(self):
        s = VideoRetrievalSystem.in_memory(
            SystemConfig(workers=1, obs_enabled=False)
        )
        text = format_stats(s.metrics())
        assert "(no metric samples recorded)" in text
        s.close()
