"""Partial results under shard failure: faults, breakers, total loss.

The degraded-mode equivalence mirrors the extractor-degradation one: a
ranking missing shard *s* is not approximate -- it is *exactly* the
ranking an engine over the complement corpus (every partition but *s*)
produces.  Fault-point arithmetic: ``shard.query`` counts dispatch
attempts in shard-index order, so with all four shards dispatched,
``once`` fails shard 0, ``every=3`` shard 2, ``every=4`` shard 3, and
``every=2`` shards 1 and 3.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.search import SearchEngine
from repro.resilience import CircuitOpenError, FaultInjected, ResiliencePolicies
from repro.sharding import ShardedSearchEngine, shard_of
from repro.web.api import error_response_for
from tests.core.clip_reference import ranking_of, reference_clip_ranking


def _engine(ingested_system, shard_paths, spec, breaker_cooldown=0.1, **overrides):
    cfg = replace(ingested_system.config, **overrides)
    policies = ResiliencePolicies(fault_spec=spec, breaker_cooldown=breaker_cooldown)
    return ShardedSearchEngine(cfg, shard_paths, policies=policies)


@pytest.fixture(scope="module")
def query_vectors(ingested_system):
    frame = ingested_system.any_key_frame()
    return {n: ingested_system.engine.extractors[n].extract(frame) for n in ("sch", "tamura")}


def _key(results):
    return [(h.frame_id, h.distance, sorted(h.per_feature.items())) for h in results]


@pytest.mark.parametrize(
    "spec,failed",
    [
        ("shard.query:once", [0]),
        ("shard.query:every=3", [2]),
        ("shard.query:every=4", [3]),
        ("shard.query:every=2", [1, 3]),
    ],
)
def test_degraded_ranking_equals_complement_corpus(
    ingested_system, shard_paths, query_vectors, spec, failed
):
    engine = _engine(ingested_system, shard_paths, spec)
    try:
        results = engine.query_with_vectors(query_vectors, top_k=50)
    finally:
        engine.close()
    assert results.degraded
    assert results.degraded_shards == failed

    store = ingested_system.feature_store
    survivors = [
        fid
        for fid in store.frame_ids()
        if shard_of(store.get(fid).video_id, 4) not in failed
    ]
    reference = ingested_system.engine.query_with_vectors(
        query_vectors, top_k=50, candidate_ids=survivors
    )
    assert _key(results) == _key(reference)
    assert results.n_candidates == len(survivors)


@pytest.mark.parametrize("spec,failed", [("shard.query:once", 0), ("shard.query:every=3", 2)])
def test_degraded_clip_ranking_equals_complement_corpus(
    ingested_system, shard_paths, small_corpus, spec, failed
):
    """A clip missing shard *s* is aligned against the surviving videos
    only, normalized over their frames only: the ranking of an engine
    whose store holds just the surviving partitions."""
    clip = small_corpus[4]
    engine = _engine(ingested_system, shard_paths, spec)
    try:
        matches = engine.query_video(clip, top_k=20)
    finally:
        engine.close()
    store = ingested_system.feature_store
    survivors = np.flatnonzero(
        [shard_of(int(vid), 4) != failed for vid in store.columns.video_ids]
    )
    assert 0 < survivors.size < len(store)
    complement = SearchEngine(
        engine.config, store.take(survivors), ingested_system._index
    )
    want = reference_clip_ranking(complement, clip.frames)
    assert ranking_of(matches) == want
    assert ranking_of(complement.query_video(clip, top_k=20)) == want


def test_transient_fault_recovers(ingested_system, shard_paths, query_vectors):
    engine = _engine(ingested_system, shard_paths, "shard.query:once")
    try:
        first = engine.query_with_vectors(query_vectors, top_k=10)
        second = engine.query_with_vectors(query_vectors, top_k=10)
    finally:
        engine.close()
    assert first.degraded_shards == [0]
    assert second.degraded_shards == []
    clean = ingested_system.engine.query_with_vectors(query_vectors, top_k=10)
    assert _key(second) == _key(clean)


def test_every_shard_failing_escalates(ingested_system, shard_paths, query_vectors):
    # a partial answer needs a surviving shard: an empty one is an error
    engine = _engine(ingested_system, shard_paths, "shard.query:every=1")
    try:
        with pytest.raises(FaultInjected):
            engine.query_with_vectors(query_vectors, top_k=5)
    finally:
        engine.close()


def test_breaker_trips_open_and_short_circuits(
    ingested_system, shard_paths, query_vectors
):
    # every=4 fails shard 3 on each 4-dispatch query; the long cooldown
    # keeps the tripped breaker open for the rest of the test
    engine = _engine(
        ingested_system, shard_paths, "shard.query:every=4", breaker_cooldown=60.0
    )
    try:
        for _ in range(4):  # four consecutive failures reach min_calls
            results = engine.query_with_vectors(query_vectors, top_k=5)
            assert results.degraded_shards == [3]
            assert len(results) > 0
        breaker = engine.sharding_stats()["breakers"]["shard3"]
        assert breaker["state"] == "open"
        assert breaker["trips"] == 1
        # the open breaker now skips shard 3 without dispatching it; the
        # answer stays partial and the other shards keep serving
        results = engine.query_with_vectors(query_vectors, top_k=5)
        assert 3 in results.degraded_shards
        assert len(results) > 0
        assert engine.sharding_stats()["breakers"]["shard3"]["state"] == "open"
    finally:
        engine.close()


def test_every_breaker_open_is_a_503_with_retry_after(
    ingested_system, shard_paths, query_vectors
):
    engine = _engine(
        ingested_system, shard_paths, "shard.query:every=1", breaker_cooldown=60.0
    )
    try:
        for _ in range(4):  # every shard fails every query: all four trip
            with pytest.raises(FaultInjected):
                engine.query_with_vectors(query_vectors, top_k=5)
        breakers = engine.sharding_stats()["breakers"]
        assert all(b["state"] == "open" for b in breakers.values())
        with pytest.raises(CircuitOpenError) as info:
            engine.query_with_vectors(query_vectors, top_k=5)
    finally:
        engine.close()
    (status, _ctype, _body), headers = error_response_for(info.value, "/search")
    assert status == 503
    assert int(headers["Retry-After"]) >= 1


def test_breakers_built_per_shard(ingested_system, shard_paths):
    engine = _engine(ingested_system, shard_paths, None)
    try:
        stats = engine.sharding_stats()["breakers"]
        assert sorted(stats) == ["shard0", "shard1", "shard2", "shard3"]
        assert all(b["state"] == "closed" for b in stats.values())
    finally:
        engine.close()
