"""Query-result cache: LRU unit behaviour and engine-level invalidation.

That every add, delete and rename invalidates what the cache answers, for
frame and vector queries alike, is checked after every step of the model
test (``tests/integration/test_stateful.py``): a miss, then a hit, both
bitwise the cache-off answer."""

import numpy as np
import pytest

from repro.core.cache import QueryCache, digest_array, digest_vectors
from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.features.base import FeatureVector
from repro.video.generator import VideoSpec, generate_video


class TestDigests:
    def test_array_digest_content_sensitive(self):
        a = np.arange(12, dtype=np.float64)
        assert digest_array(a) == digest_array(a.copy())
        assert digest_array(a) != digest_array(a + 1)
        # same bytes, different shape/dtype must not collide
        assert digest_array(a) != digest_array(a.reshape(3, 4))
        assert digest_array(np.zeros(2, np.float64)) != digest_array(
            np.zeros(16, np.uint8)
        )

    def test_vector_digest_order_free(self):
        va = FeatureVector(kind="sch", values=np.arange(4.0))
        vb = FeatureVector(kind="acc", values=np.ones(3))
        assert digest_vectors({"sch": va, "acc": vb}) == digest_vectors(
            {"acc": vb, "sch": va}
        )
        vc = FeatureVector(kind="acc", values=np.zeros(3))
        assert digest_vectors({"sch": va, "acc": vb}) != digest_vectors(
            {"sch": va, "acc": vc}
        )


class TestQueryCacheUnit:
    def test_roundtrip_and_counters(self):
        cache = QueryCache(max_entries=4)
        assert cache.get("k", 1) is None
        cache.put("k", 1, "value")
        assert cache.get("k", 1) == "value"
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "evictions": 0,
        }

    def test_lru_evicts_least_recent(self):
        cache = QueryCache(max_entries=2)
        cache.put("a", 1, 1)
        cache.put("b", 1, 2)
        assert cache.get("a", 1) == 1  # refresh a; b is now the oldest
        cache.put("c", 1, 3)
        assert cache.get("b", 1) is None
        assert cache.get("a", 1) == 1
        assert cache.get("c", 1) == 3

    def test_generation_change_drops_everything(self):
        cache = QueryCache(max_entries=4)
        cache.put("a", 1, 1)
        cache.put("b", 1, 2)
        assert cache.get("a", 2) is None
        assert cache.get("b", 2) is None
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0

    def test_disabled_cache(self):
        cache = QueryCache(max_entries=0)
        assert not cache.enabled
        cache.put("a", 1, 1)
        assert cache.get("a", 1) is None
        assert len(cache) == 0


def _system(**overrides):
    config = SystemConfig(**overrides)
    system = VideoRetrievalSystem.in_memory(config)
    admin = system.login_admin()
    for seed in (71, 72):
        admin.add_video(
            generate_video(
                VideoSpec(category="news", seed=seed, n_shots=2, frames_per_shot=4)
            )
        )
    return system


class TestEngineCache:
    def test_repeat_query_hits(self):
        system = _system(query_cache_size=64)
        query = system.any_key_frame()
        first = system.search(query, top_k=5)
        second = system.search(query, top_k=5)
        stats = system.metrics()["cache"]
        assert stats["hits"] == 1
        assert [h.frame_id for h in second] == [h.frame_id for h in first]
        assert [h.distance for h in second] == [h.distance for h in first]
        # a different top_k is a different query
        system.search(query, top_k=3)
        assert system.metrics()["cache"]["hits"] == 1

    def test_ingest_invalidates(self):
        system = _system(query_cache_size=64)
        query = system.any_key_frame()
        system.search(query, top_k=5)
        system.admin.add_video(
            generate_video(
                VideoSpec(category="sports", seed=73, n_shots=1, frames_per_shot=3)
            )
        )
        results = system.search(query, top_k=5)
        stats = system.metrics()["cache"]
        assert stats["hits"] == 0
        assert stats["invalidations"] == 1
        # the rebuilt entry reflects the new corpus
        assert results.n_total == system.n_key_frames()

    def test_hits_are_defensive_copies(self):
        system = _system(query_cache_size=64)
        query = system.any_key_frame()
        first = system.search(query, top_k=5)
        first.hits[0].per_feature.clear()
        second = system.search(query, top_k=5)
        assert system.metrics()["cache"]["hits"] >= 1
        assert second.hits[0].per_feature  # not poisoned by the mutation

    def test_disabled_cache_never_hits(self):
        system = _system(query_cache_size=0)
        query = system.any_key_frame()
        a = system.search(query, top_k=5)
        b = system.search(query, top_k=5)
        assert system.metrics()["cache"]["hits"] == 0
        assert [h.frame_id for h in b] == [h.frame_id for h in a]


class TestConfigValidation:
    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(query_cache_size=-1)
