"""Graceful degradation of search under armed extractor faults.

The load-bearing equivalence: a degraded ranking is not approximate --
skipping a faulted extractor and renormalizing the fusion weights over
the survivors produces *exactly* the ranking an explicit query without
that feature produces.  For a frame query the model test's
``crash_an_extractor`` rule checks it after any write; here, for a clip
(where the feature leaves every key frame's cost matrix), for every
feature but one faulted, and for all of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.search import SearchEngine
from repro.core.system import VideoRetrievalSystem
from repro.obs import Obs
from repro.resilience import ResiliencePolicies
from repro.sharding import ShardedSearchEngine, read_manifest, split_store
from tests.core.clip_reference import ranking_of, reference_clip_ranking


def _build(small_corpus, faults=None):
    with pytest.MonkeyPatch.context() as mp:
        if faults is not None:
            mp.setenv("REPRO_FAULTS", faults)
        system = VideoRetrievalSystem.in_memory()
    admin = system.login_admin()
    for video in small_corpus[:4]:
        admin.add_video(video)
    return system


@pytest.fixture(scope="module")
def clean_system(small_corpus):
    return _build(small_corpus)


def test_all_but_one_faulted_still_ranks(small_corpus, clean_system):
    doomed = [f for f in SystemConfig().features if f != "glcm"]
    spec = ";".join(f"extractor.{f}:every=1" for f in doomed)
    system = _build(small_corpus, faults=spec)
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
    system = _build(small_corpus, faults=spec)
    query = system.any_key_frame()
    with pytest.raises(Exception):  # the last extractor's error propagates
        system.search(query, top_k=5)


def test_armed_faults_bypass_query_cache(small_corpus):
    system = _build(small_corpus, faults="extractor.gabor:every=1")
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
    system = _build(small_corpus, faults="extractor.gabor:every=1")
    system.search(system.any_key_frame(), top_k=5)
    fam = system.obs.registry.render_json()["repro_resilience_degraded_total"]
    samples = {s["labels"]["reason"]: s["value"] for s in fam["samples"]}
    assert samples["extractor.gabor"] == 1


def _degraded_count(obs):
    fam = obs.registry.render_json().get("repro_resilience_degraded_total")
    samples = {s["labels"]["reason"]: s["value"] for s in fam["samples"]} if fam else {}
    return samples.get("extractor.gabor", 0)


@pytest.fixture(scope="module")
def shard_paths3(clean_system, tmp_path_factory):
    out = tmp_path_factory.mktemp("degraded-shards3")
    split_store(clean_system.feature_store, str(out), 3)
    return read_manifest(str(out))[1]


@pytest.mark.parametrize("kind", ["solo", "sharded"])
def test_degraded_clip_equals_the_survivors_reference(clean_system, shard_paths3, kind):
    config = clean_system.config
    store, index = clean_system.feature_store, clean_system._index
    obs = Obs()
    policies = ResiliencePolicies(fault_spec="extractor.gabor:every=1", obs=obs)
    if kind == "solo":
        engine = SearchEngine(config, store, index, obs=obs, policies=policies)
    else:
        engine = ShardedSearchEngine(config, shard_paths3, obs=obs, policies=policies)
    clean = SearchEngine(config, store, index)
    clip = clean_system.get_video_frames(2)[2:8]
    assert len(clean.keyframe_extractor.extract(list(clip))) >= 2
    survivors = [f for f in config.features if f != "gabor"]
    try:
        for n in (1, 2):
            degraded = engine.query_video(clip, top_k=10)
            # one drop per clip, however many key frames it has
            assert _degraded_count(obs) == n
            assert policies.faults.stats()["extractor.gabor"]["fired"] == n
        explicit = clean.query_video(clip, features=survivors, top_k=10)
        assert [(v, d.hex()) for v, d in ranking_of(degraded)] == [
            (v, d.hex()) for v, d in ranking_of(explicit)
        ]
        want = reference_clip_ranking(clean, clip, features=survivors)[:10]
        assert [m.video_id for m in degraded] == [vid for vid, _d in want]
        np.testing.assert_allclose(
            [m.distance for m in degraded], [d for _vid, d in want], atol=1e-9
        )
    finally:
        engine.close()
        clean.close()
