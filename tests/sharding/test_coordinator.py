"""Scatter-gather coordinator: byte-identical merge with the single store.

The load-bearing equivalence of the whole subsystem: for every query
kind (frame, vectors, video), any candidate set, and any feature
selection, the coordinator's merged ranking is *exactly* -- distances,
per-feature values, and tie order included -- the ranking the unsharded
engine computes over the same corpus.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.search import SearchEngine
from repro.core.system import VideoRetrievalSystem
from repro.sharding import ShardedSearchEngine, read_manifest, shard_of, split_store
from repro.video.generator import VideoSpec, generate_video
from tests.core.clip_reference import ranking_of, reference_clip_ranking, relaid_store


def _key(results):
    """Everything a ranking is made of, exact floats included."""
    return [
        (h.frame_id, h.video_id, h.distance, sorted(h.per_feature.items()))
        for h in results
    ]


@pytest.fixture(scope="module")
def coordinator(ingested_system, shard_paths):
    engine = ShardedSearchEngine(ingested_system.config, shard_paths)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def query_vectors(ingested_system, coordinator):
    frame = ingested_system.any_key_frame()
    return {n: coordinator.extractors[n].extract(frame) for n in ("sch", "glcm", "tamura")}


class TestFrameQueries:
    def test_fused_ranking_identical(self, ingested_system, coordinator, small_corpus):
        for video in small_corpus[:3]:
            query = video.frames[4]
            base = ingested_system.search(query, top_k=10)
            sharded = coordinator.query_frame(query, top_k=10)
            assert _key(sharded) == _key(base)
            assert sharded.n_candidates == base.n_candidates
            assert sharded.n_total == base.n_total
            assert not sharded.degraded
            assert sharded.degraded_shards == []

    @pytest.mark.parametrize("feature", ["sch", "tamura", "gabor"])
    def test_single_feature_ranking_identical(
        self, ingested_system, coordinator, small_corpus, feature
    ):
        query = small_corpus[5].frames[0]
        base = ingested_system.search(query, features=[feature], top_k=8)
        sharded = coordinator.query_frame(query, features=[feature], top_k=8)
        assert _key(sharded) == _key(base)

    def test_full_store_scan_identical(self, ingested_system, coordinator, small_corpus):
        query = small_corpus[2].frames[7]
        n = len(ingested_system.feature_store)
        base = ingested_system.search(query, top_k=n, use_index=False)
        sharded = coordinator.query_frame(query, top_k=n, use_index=False)
        assert base.n_candidates == n  # no pruning: every shard fully scored
        assert _key(sharded) == _key(base)


class TestVectorQueries:
    def test_candidate_subset_in_arbitrary_order(
        self, ingested_system, coordinator, query_vectors
    ):
        # descending order exercises the coordinator's promise to keep the
        # caller's candidate order through the split/merge round trip
        subset = ingested_system.feature_store.frame_ids()[::2][::-1]
        base = ingested_system.engine.query_with_vectors(
            query_vectors, top_k=6, candidate_ids=subset
        )
        sharded = coordinator.query_with_vectors(
            query_vectors, top_k=6, candidate_ids=subset
        )
        assert _key(sharded) == _key(base)
        assert sharded.n_candidates == len(subset)

    def test_weight_override_identical(self, ingested_system, shard_paths, query_vectors):
        """Unequal configured fusion weights fuse the same on both sides."""
        config = ingested_system.config.with_(
            fusion_weights={"sch": 3.0, "glcm": 0.25, "tamura": 1.5}
        )
        solo = SearchEngine(config, ingested_system.feature_store, ingested_system._index)
        sharded = ShardedSearchEngine(config, shard_paths)
        try:
            want = solo.query_with_vectors(query_vectors, top_k=12)
            assert _key(sharded.query_with_vectors(query_vectors, top_k=12)) == _key(want)
            plain = ingested_system.engine.query_with_vectors(query_vectors, top_k=12)
            assert [h.distance for h in want] != [h.distance for h in plain]
        finally:
            sharded.close()
            solo.close()

    def test_empty_candidate_list(self, coordinator, query_vectors):
        results = coordinator.query_with_vectors(
            query_vectors, top_k=5, candidate_ids=[]
        )
        assert len(results) == 0
        assert results.n_candidates == 0
        assert not results.degraded


class TestVideoQueries:
    # session corpus, base vs 3-shard, solo vs batch: the model test in
    # tests/core/test_query_pipeline.py
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_hand_built_store_equals_the_reference(
        self, ingested_system, small_corpus, tmp_path, n_shards
    ):
        # unequal lengths (one single-key-frame video), frame ids dealt
        # round-robin across videos: every shard has to gather rows
        source = ingested_system.feature_store
        lengths = (3, 1, 5, 2, 4)
        records = [source.get(fid) for fid in source.frame_ids()[: sum(lengths)]]
        store = relaid_store(records, lengths, interleave=True)
        split_store(store, str(tmp_path), n_shards)
        _, paths = read_manifest(str(tmp_path))
        engine = ShardedSearchEngine(ingested_system.config, paths)
        try:
            for clip in (small_corpus[3], [small_corpus[6].frames[0]]):
                frames = clip if isinstance(clip, list) else clip.frames
                want = reference_clip_ranking(engine, frames)
                assert len(want) == len(lengths)
                assert ranking_of(engine.query_video(clip, top_k=len(want))) == want
        finally:
            engine.close()


class TestTieOrdering:
    def test_exact_cross_shard_ties_rank_identically(self, tmp_path):
        # four byte-identical videos under distinct ids: every distance is
        # an exact tie, and the pinned partitioner spreads ids 1..4 over
        # two shards -- so tie-breaking must agree *across* shard replies
        video = generate_video(
            VideoSpec(category="news", seed=5, n_shots=2, frames_per_shot=4)
        )
        assert len({shard_of(vid, 4) for vid in (1, 2, 3, 4)}) >= 2
        system = VideoRetrievalSystem.in_memory()
        admin = system.login_admin()
        for i in range(4):
            admin.add_video(replace(video, name=f"{video.name}-{i}"))
        split_store(system.feature_store, str(tmp_path), 4)
        _, paths = read_manifest(str(tmp_path))
        engine = ShardedSearchEngine(system.config, paths)
        try:
            query = video.frames[0]
            n = len(system.feature_store)
            base = system.search(query, top_k=n, use_index=False)
            sharded = engine.query_frame(query, top_k=n, use_index=False)
            assert _key(sharded) == _key(base)
            distances = [h.distance for h in base]
            assert len(set(distances)) < len(distances)  # ties really occurred
        finally:
            engine.close()
            system.close()


class TestIntrospection:
    def test_sharding_stats_topology(self, ingested_system, coordinator):
        stats = coordinator.sharding_stats()
        assert stats["shards"] == 4
        assert len(stats["paths"]) == 4
        assert sum(stats["frames_per_shard"]) == len(ingested_system.feature_store)
        # every shard sits behind its own breaker, under any policy bundle
        assert sorted(stats["breakers"]) == ["shard0", "shard1", "shard2", "shard3"]
        assert all(b["state"] == "closed" for b in stats["breakers"].values())

    def test_rejects_ann_config(self, ingested_system, shard_paths):
        cfg = replace(ingested_system.config, ann=True, shards=1, shard_paths=None)
        with pytest.raises(ValueError, match="ann"):
            ShardedSearchEngine(cfg, shard_paths)

    def test_rejects_empty_shard_paths(self, ingested_system):
        with pytest.raises(ValueError, match="shard_paths"):
            ShardedSearchEngine(ingested_system.config, [])
