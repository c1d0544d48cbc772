"""Graceful degradation of search under armed extractor faults.

The load-bearing equivalence: a degraded ranking is not approximate --
skipping a faulted extractor and renormalizing the fusion weights over
the survivors produces *exactly* the ranking an explicit query without
that feature produces.
"""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.resilience import RetryExhausted


def _build(small_corpus, **config_kwargs):
    system = VideoRetrievalSystem.in_memory(SystemConfig(**config_kwargs))
    admin = system.login_admin()
    for video in small_corpus[:4]:
        admin.add_video(video)
    return system


@pytest.fixture(scope="module")
def clean_system(small_corpus):
    return _build(small_corpus)


def test_faulted_extractor_degrades_not_fails(small_corpus, clean_system):
    system = _build(small_corpus, fault_spec="extractor.gabor:every=1")
    query = system.any_key_frame()
    results = system.search(query, top_k=8)
    assert results.degraded
    assert results.degraded_features == ["gabor"]
    assert len(results) >= 1  # index pruning may cap below top_k


def test_degraded_ranking_equals_no_gabor_reference(small_corpus, clean_system):
    system = _build(small_corpus, fault_spec="extractor.gabor:every=1")
    query = system.any_key_frame()
    degraded = system.search(query, top_k=8)
    survivors = [f for f in clean_system.config.features if f != "gabor"]
    reference = clean_system.search(query, features=survivors, top_k=8)
    assert not reference.degraded
    assert [h.frame_id for h in degraded] == [h.frame_id for h in reference]
    for d, r in zip(degraded, reference):
        assert d.distance == pytest.approx(r.distance, abs=1e-12)


def test_all_but_one_faulted_still_ranks(small_corpus, clean_system):
    doomed = [f for f in SystemConfig().features if f != "glcm"]
    spec = ";".join(f"extractor.{f}:every=1" for f in doomed)
    system = _build(small_corpus, fault_spec=spec)
    query = system.any_key_frame()
    results = system.search(query, top_k=8)
    assert results.degraded
    assert sorted(results.degraded_features) == sorted(doomed)
    assert len(results) >= 1
    # a glcm-only ranking is still a valid, fully-ordered ranking
    reference = clean_system.search(query, features=["glcm"], top_k=8)
    assert [h.frame_id for h in results] == [h.frame_id for h in reference]
    distances = [h.distance for h in results]
    assert distances == sorted(distances)


def test_every_extractor_faulted_fails_the_query(small_corpus):
    spec = ";".join(f"extractor.{f}:every=1" for f in SystemConfig().features)
    system = _build(small_corpus, fault_spec=spec)
    query = system.any_key_frame()
    with pytest.raises(Exception):  # the last extractor's error propagates
        system.search(query, top_k=5)


def test_armed_faults_bypass_query_cache(small_corpus):
    system = _build(small_corpus, fault_spec="extractor.gabor:every=1")
    query = system.any_key_frame()
    r1 = system.search(query, top_k=5)
    r2 = system.search(query, top_k=5)
    assert r1.degraded and r2.degraded
    # both queries really ran: the gabor fault point fired twice
    assert system.resilience.faults.stats()["extractor.gabor"]["fired"] == 2
    assert system.metrics()["cache"]["hits"] == 0


def test_clean_run_is_not_degraded_and_caches(small_corpus, clean_system):
    query = clean_system.any_key_frame()
    r1 = clean_system.search(query, top_k=5)
    assert not r1.degraded and r1.degraded_features == []


def test_degraded_counter_recorded(small_corpus):
    system = _build(small_corpus, fault_spec="extractor.gabor:every=1")
    system.search(system.any_key_frame(), top_k=5)
    fam = system.obs.registry.render_json()["repro_resilience_degraded_total"]
    samples = {s["labels"]["reason"]: s["value"] for s in fam["samples"]}
    assert samples["extractor.gabor"] == 1


def test_codec_decode_retry_exhausts_on_permanent_fault(small_corpus):
    system = _build(small_corpus, fault_spec="codec.decode:every=1")
    with pytest.raises(RetryExhausted) as info:
        system.get_video_frames(1)
    assert info.value.point == "codec.decode"
    assert info.value.attempts == system.resilience.retry.attempts


def test_codec_decode_recovers_from_transient_fault(small_corpus):
    system = _build(small_corpus, fault_spec="codec.decode:once")
    frames = system.get_video_frames(1)  # first attempt faults, retry succeeds
    assert frames
    fam = system.obs.registry.render_json()["repro_resilience_retries_total"]
    samples = {s["labels"]["point"]: s["value"] for s in fam["samples"]}
    assert samples["codec.decode"] == 1
