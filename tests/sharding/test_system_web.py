"""Sharded serving through the system facade, web API, and HTTP server."""

from __future__ import annotations

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.sharding import (
    ShardedSearchEngine,
    attach_sharded_engine,
    maybe_attach_sharded,
    sharded_config,
)
from repro.web.api import CbvrApi


@pytest.fixture(scope="module")
def attached(small_corpus, shard_dir, tmp_path_factory):
    """A system serving the session shard set, with queries pre-verified."""
    system = VideoRetrievalSystem.in_memory()
    admin = system.login_admin()
    for video in small_corpus:
        admin.add_video(video)
    query = small_corpus[0].frames[0]
    before = system.search(query, top_k=5)
    attach_sharded_engine(system, sharded_config(shard_dir).shard_paths)
    yield system, query, before
    system.close()


class TestSystemFacade:
    def test_attach_preserves_ranking(self, attached):
        system, query, before = attached
        assert isinstance(system.engine, ShardedSearchEngine)
        after = system.search(query, top_k=5)
        assert [(h.frame_id, h.distance) for h in after] == [
            (h.frame_id, h.distance) for h in before
        ]

    def test_metrics_grow_sharding_section(self, attached):
        system, query, _ = attached
        system.search(query, top_k=3)
        m = system.metrics()
        sharding = m["sharding"]
        assert sharding["shards"] == 4
        assert sharding["partial_ok"] is True
        assert sum(sharding["frames_per_shard"]) == m["store"]["key_frames"]
        assert sorted(sharding["breakers"]) == [
            "shard0", "shard1", "shard2", "shard3",
        ]
        # the coordinator shares the system registry: per-shard counters
        # land next to everything else GET /metrics scrapes
        reg = m["registry"]
        assert "repro_shard_queries_total" in reg
        assert "repro_shard_merge_seconds" in reg
        ok = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in reg["repro_shard_queries_total"]["samples"]
        }
        assert any(v > 0 for v in ok.values())


class TestMaybeAttach:
    def test_plain_config_is_a_noop(self, small_corpus):
        system = VideoRetrievalSystem.in_memory()
        try:
            assert maybe_attach_sharded(system) is None
        finally:
            system.close()

    def test_sharded_config_attaches_idempotently(self, shard_dir):
        system = VideoRetrievalSystem.in_memory(sharded_config(shard_dir))
        try:
            engine = maybe_attach_sharded(system)
            assert isinstance(engine, ShardedSearchEngine)
            assert maybe_attach_sharded(system) is engine
        finally:
            system.close()

    def test_attach_without_paths_rejected(self):
        system = VideoRetrievalSystem.in_memory()
        try:
            with pytest.raises(ValueError, match="shard"):
                attach_sharded_engine(system)
        finally:
            system.close()


class TestWebApi:
    def test_search_response_reports_empty_degraded_shards(self, attached):
        system, query, _ = attached
        api = CbvrApi(system)
        status, ctype, body = api.handle(
            "POST", "/search", body=query.encode("ppm"), query={"top_k": "3"}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["degraded"] is False
        assert payload["degraded_shards"] == []
        assert payload["results"]

    def test_search_response_surfaces_degraded_shards(
        self, small_corpus, shard_dir
    ):
        cfg = sharded_config(
            shard_dir, SystemConfig(fault_spec="shard.query:once")
        )
        system = VideoRetrievalSystem.in_memory(cfg)
        try:
            maybe_attach_sharded(system)
            api = CbvrApi(system)
            status, _ctype, body = api.handle(
                "POST",
                "/search",
                body=small_corpus[0].frames[0].encode("ppm"),
                query={"top_k": "5"},
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["degraded"] is True
            assert payload["degraded_shards"]  # the faulted shard's index
            assert payload["results"]  # partial, not empty
        finally:
            system.close()


class TestMakeServer:
    def test_make_server_auto_attaches_sharded_engine(self, shard_dir, served):
        system = VideoRetrievalSystem.in_memory(sharded_config(shard_dir))
        try:
            served(system)
            assert isinstance(system.engine, ShardedSearchEngine)
        finally:
            system.close()
