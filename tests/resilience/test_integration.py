"""Resilience wired through the stack: the ANN and worker-pool fallbacks,
request deadlines, and two-run chaos determinism.  Faults are armed the
one way a system is armed: the ``REPRO_FAULTS`` environment variable.
A statement failing inside any write is the model test's crash rule
(``tests/integration/test_stateful.py``)."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.resilience import DeadlineExceeded


def _build(small_corpus, n_videos=4, faults=None, **config_kwargs):
    with pytest.MonkeyPatch.context() as mp:
        if faults is not None:
            mp.setenv("REPRO_FAULTS", faults)
        system = VideoRetrievalSystem.in_memory(SystemConfig(**config_kwargs))
    admin = system.login_admin()
    for video in small_corpus[:n_videos]:
        admin.add_video(video)
    return system


# -- ANN: brute-force fallback ---------------------------------------------------


def test_ann_fault_falls_back_to_exact_results(small_corpus):
    faulted = _build(
        small_corpus, ann=True, ann_cells=4, ann_nprobe=2,
        faults="ann.probe:every=1",
    )
    exact = _build(small_corpus)  # no ANN at all: the exact reference
    for top_k in (8, 5, 3):
        query = faulted.any_key_frame()
        got = faulted.search(query, top_k=top_k)
        want = exact.search(query, top_k=top_k)
        # brute force is *better* than an IVF probe, so no degraded tag...
        assert not got.degraded
        # ...and the ranking is the exact one
        assert [h.frame_id for h in got] == [h.frame_id for h in want]
    fam = faulted.obs.registry.render_json()["repro_resilience_fallbacks_total"]
    samples = {s["labels"]["kind"]: s["value"] for s in fam["samples"]}
    # no breaker skips the doomed probe: every query tried it and fell back
    fired = faulted.resilience.faults.stats()["ann.probe"]["fired"]
    assert samples["ann_brute_force"] == fired == 3


# -- request deadlines ---------------------------------------------------------


def test_expired_deadline_fails_search(small_corpus):
    # ingest with no deadline, then arm an impossible one for the query
    system = _build(small_corpus)
    query_image = system.any_key_frame()
    system.resilience.request_deadline = 1e-9
    with pytest.raises(DeadlineExceeded) as info:
        system.search(query_image, top_k=5)
    assert info.value.stage.startswith("search.")


def test_generous_deadline_does_not_interfere(small_corpus):
    system = _build(small_corpus, request_deadline=3600.0)
    results = system.search(system.any_key_frame(), top_k=5)
    assert len(results) >= 1
    assert not results.degraded


def test_expired_deadline_fails_ingest(small_corpus):
    system = VideoRetrievalSystem.in_memory(SystemConfig(request_deadline=1e-9))
    with pytest.raises(DeadlineExceeded) as info:
        system.login_admin().add_video(small_corpus[0])
    assert info.value.stage.startswith("ingest.")


# -- determinism ---------------------------------------------------------------


def _chaos_run(small_corpus):
    """One armed chaos run; returns every counter the policies kept."""
    system = _build(
        small_corpus, n_videos=3, ann=True, ann_cells=4, ann_nprobe=2,
        faults="extractor.gabor:every=2;ann.probe:every=3",
    )
    query = system.any_key_frame()
    for k in range(4):
        system.search(query, top_k=4 + k)
    reg = system.obs.registry.render_json()
    counters = {}
    for family in (
        "repro_resilience_faults_injected_total",
        "repro_resilience_degraded_total",
        "repro_resilience_fallbacks_total",
    ):
        for sample in reg.get(family, {}).get("samples", []):
            key = family + str(sorted(sample["labels"].items()))
            counters[key] = sample["value"]
    return counters, system.resilience.faults.stats()


def test_seeded_chaos_counters_reproduce_exactly(small_corpus):
    counters_a, faults_a = _chaos_run(small_corpus)
    counters_b, faults_b = _chaos_run(small_corpus)
    assert counters_a == counters_b
    assert faults_a == faults_b
    assert faults_a["extractor.gabor"]["fired"] >= 1
    assert faults_a["ann.probe"]["fired"] >= 1


# -- surfaces ------------------------------------------------------------------


def test_metrics_snapshot_has_resilience_section(small_corpus):
    system = _build(small_corpus, n_videos=1, faults="extractor.gabor:once")
    system.search(system.any_key_frame(), top_k=3)
    section = system.metrics()["resilience"]
    # the shards' breakers report under "sharding"; none stands here
    assert section == {"armed_points": 1, "faults_fired": 1}


def test_stats_renders_resilience_line(small_corpus):
    from repro.obs import format_stats

    system = _build(small_corpus, n_videos=1)
    text = format_stats(system.metrics())
    assert "resilience armed_points=0 faults_fired=0" in text
    assert "breaker" not in text
