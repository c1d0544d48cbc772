"""Inputs come only from the seed; the corpora only from the manifest's."""

import numpy as np
import pytest

import corpus
import plan


def _pixels(queries):
    return [q.image.pixels.tobytes() for q in queries]


def test_same_seed_same_inputs_other_seed_same_counts():
    a, again, b = plan.Inputs(5), plan.Inputs(5), plan.Inputs(6)
    assert _pixels(a.frames(0, 20)) == _pixels(again.frames(0, 20))
    assert a.hot_mix(4, 40) == again.hot_mix(4, 40)
    assert len(b.frames(0, 20)) == 20
    assert not set(_pixels(a.frames(0, 20))) & set(_pixels(b.frames(0, 20)))
    assert sum(hot for hot, _ in b.hot_mix(4, 40)) == sum(hot for hot, _ in a.hot_mix(4, 40)) == 10
    assert a.hot_mix(4, 40) != b.hot_mix(4, 40)


def test_query_frames_are_distinct_and_balanced():
    queries = plan.Inputs(5).frames(0, 50)
    assert len(set(_pixels(queries))) == 50
    counts = {c: sum(q.category == c for q in queries) for c in plan.CATEGORIES}
    assert set(counts.values()) == {10}


def test_seconds_only_pick_the_number_of_rounds():
    assert plan.rounds(24, "scan_10k") == 4 and plan.rounds(30, "serve_1k") == 5
    assert plan.rounds(24, "library_churn") == 6  # its round is shorter
    assert plan.rounds(1, "scan_10k") == 2  # fastest-of-rounds needs two
    assert plan.rung_requests(40, 3.5) == 140


def test_an_operation_counts_at_its_fastest_round():
    from measure import best_rate, fastest_round

    # a stall in round 0 (op 1) and a slow round 1 leave no trace
    assert fastest_round([[1.0, 9.0, 3.0], [2.0, 4.0, 6.0], [1.5, 2.0, 3.5]]) == [1.0, 2.0, 3.0]
    assert best_rate([(100, 2.0), (100, 1.0), (100, 4.0)]) == 100.0


def test_expansion_keeps_buckets_categories_and_regions():
    scale = plan.SCALES["smoke"]
    from repro.core.system import VideoRetrievalSystem

    system = VideoRetrievalSystem.in_memory()
    try:
        corpus.ingest(system, plan.corpus_videos("feat_10k", scale))
        store = system.feature_store
        real = [store.get(fid) for fid in store.frame_ids()]
    finally:
        system.close()
    big = corpus.expand(real, 120, np.random.default_rng(3))
    assert len(big) == 120 and len(big.video_ids()) == 3  # 50 frames per video
    real_regions = {tuple(r.features["regions"].values) for r in real}
    real_buckets = {r.bucket for r in real}
    for fid in big.frame_ids():
        record = big.get(fid)
        assert record.bucket in real_buckets
        assert tuple(record.features["regions"].values) in real_regions
        assert (record.features["sch"].values >= 0).all()
    for vid in big.video_ids():  # a synthetic video is of one category
        assert len({r.category for r in big.frames_of_video(vid)}) == 1


def test_manifest_count_mismatch_is_hard_digest_mismatch_is_recorded(capsys):
    key = corpus.manifest_key("real_1k", "smoke")
    pinned = corpus.load_manifest()["corpora"][key]
    ok = corpus.verify(key, pinned)
    assert ok == {"corpus_pinned": True, "corpus_digest_ok": True}
    with pytest.raises(corpus.CorpusMismatch):
        corpus.verify(key, dict(pinned, keyframes=pinned["keyframes"] + 1))
    changed = corpus.verify(key, dict(pinned, feature_digest="0" * 64))
    assert changed == {"corpus_pinned": True, "corpus_digest_ok": False}
    assert "digest" in capsys.readouterr().err
    unpinned = corpus.verify(corpus.manifest_key("feat_10k", "smoke", 123), pinned)
    assert unpinned["corpus_pinned"] is False
