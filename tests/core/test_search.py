"""Search engine tests (frame queries, video queries, feature selection)."""

from dataclasses import replace

import pytest

from repro.core.search import SearchEngine
from repro.core.store import FeatureStore
from repro.core.system import VideoRetrievalSystem
from repro.video.generator import VideoSpec, generate_video
from tests.core.clip_reference import ranking_of, reference_clip_ranking, relaid_store


class TestFrameQuery:
    def test_exact_frame_ranks_first(self, ingested_system):
        query = ingested_system.get_key_frame(1)
        results = ingested_system.search(query, top_k=5)
        assert results[0].frame_id == 1
        assert results[0].distance == pytest.approx(0.0, abs=1e-9)

    def test_top_k_respected(self, ingested_system):
        query = ingested_system.any_key_frame()
        assert len(ingested_system.search(query, top_k=3)) <= 3

    def test_results_sorted_ascending(self, ingested_system):
        query = ingested_system.any_key_frame()
        results = ingested_system.search(query, top_k=20, use_index=False)
        distances = [h.distance for h in results]
        assert distances == sorted(distances)

    def test_single_feature_query(self, ingested_system):
        query = ingested_system.any_key_frame()
        results = ingested_system.search(query, features="gabor", top_k=5)
        assert all(set(h.per_feature) == {"gabor"} for h in results)

    def test_combined_populates_all_features(self, ingested_system):
        query = ingested_system.any_key_frame()
        results = ingested_system.search(query, top_k=3)
        expected = set(ingested_system.config.features)
        assert all(set(h.per_feature) == expected for h in results)

    def test_unknown_feature_rejected(self, ingested_system):
        with pytest.raises(ValueError):
            ingested_system.search(ingested_system.any_key_frame(), features=["sift"])

    def test_empty_feature_list_rejected(self, ingested_system):
        with pytest.raises(ValueError):
            ingested_system.search(ingested_system.any_key_frame(), features=[])

    def test_index_prunes_candidates(self, ingested_system):
        query = ingested_system.any_key_frame()
        with_index = ingested_system.search(query, top_k=100, use_index=True)
        without = ingested_system.search(query, top_k=100, use_index=False)
        assert with_index.n_candidates <= without.n_candidates
        assert without.n_candidates == ingested_system.n_key_frames()
        assert without.pruning_fraction == 0.0

    def test_index_keeps_exact_match(self, ingested_system):
        # the query IS a stored frame: pruning must never lose it
        for fid in ingested_system._store.frame_ids()[:5]:
            query = ingested_system.get_key_frame(fid)
            results = ingested_system.search(query, top_k=1, use_index=True)
            assert results[0].frame_id == fid

    def test_same_category_preferred(self, ingested_system, small_corpus):
        """Search with fresh frames (not stored): majority of top-3 should
        share the query's category -- the paper's core claim in miniature."""
        hits = 0
        total = 0
        for video in small_corpus:
            query = video.frames[-1]
            results = ingested_system.search(query, top_k=3, use_index=False)
            total += len(results)
            hits += sum(1 for h in results if h.category == video.category)
        assert hits / total > 0.6

    def test_empty_system(self):
        from repro.core.system import VideoRetrievalSystem
        from repro.imaging.image import Image

        s = VideoRetrievalSystem.in_memory()
        results = s.search(Image.blank(32, 24, (5, 5, 5)), top_k=5)
        assert len(results) == 0


class TestVideoQuery:
    def test_stored_video_matches_itself(self, ingested_system, small_corpus):
        matches = ingested_system.search_by_video(small_corpus[0], top_k=3)
        assert matches[0].video_name == small_corpus[0].name
        assert matches[0].distance == pytest.approx(0.0, abs=1e-6)

    def test_fresh_clip_finds_its_category(self, ingested_system):
        clip = generate_video(
            VideoSpec(category="news", seed=4242, n_shots=2, frames_per_shot=5)
        )
        matches = ingested_system.search_by_video(clip, top_k=3)
        assert any(m.category == "news" for m in matches)

    def test_top_k(self, ingested_system, small_corpus):
        assert len(ingested_system.search_by_video(small_corpus[0], top_k=2)) == 2

    def test_empty_query_rejected(self, ingested_system):
        with pytest.raises(ValueError):
            ingested_system.search_by_video([])

    def test_align_method(self, small_corpus):
        from repro.core.config import SystemConfig
        from repro.core.system import VideoRetrievalSystem

        s = VideoRetrievalSystem.in_memory(SystemConfig(sequence_method="align"))
        s.admin.add_video(small_corpus[0])
        s.admin.add_video(small_corpus[4])
        matches = s.search_by_video(small_corpus[0], top_k=2)
        assert matches[0].video_name == small_corpus[0].name


class TestClipQueryEqualsReference:
    """Bitwise: batched kernels + one batched DP == the step-by-step composition."""

    #: stored videos of unequal length, one of them a single key frame
    LENGTHS = (3, 1, 5, 2, 4)

    def engine(self, ingested_system, method, store):
        config = replace(ingested_system.config, sequence_method=method)
        return SearchEngine(config, store, ingested_system._index)

    def records(self, ingested_system):
        store = ingested_system.feature_store
        return [store.get(fid) for fid in store.frame_ids()[: sum(self.LENGTHS)]]

    @pytest.fixture(scope="class")
    def clip(self):
        return generate_video(
            VideoSpec(category="sports", seed=99, n_shots=3, frames_per_shot=3)
        )

    @pytest.mark.parametrize("method", ["dtw", "align"])
    @pytest.mark.parametrize("interleave", [False, True])
    def test_unequal_lengths(self, ingested_system, clip, method, interleave):
        store = relaid_store(self.records(ingested_system), self.LENGTHS, interleave)
        # interleaved ids: video-major order != stack row order, the gather branch
        assert (store.video_spans()[0] is not None) == interleave
        engine = self.engine(ingested_system, method, store)
        want = reference_clip_ranking(engine, clip.frames)
        assert len(want) == len(self.LENGTHS)
        assert ranking_of(engine.query_video(clip, top_k=len(want))) == want
        assert ranking_of(engine.query_video(clip, top_k=2)) == want[:2]

    @pytest.mark.parametrize("method", ["dtw", "align"])
    def test_one_key_frame_query(self, ingested_system, clip, method):
        store = relaid_store(self.records(ingested_system), self.LENGTHS, True)
        engine = self.engine(ingested_system, method, store)
        query = [clip.frames[0]]
        assert len(engine.keyframe_extractor.extract(query)) == 1
        assert ranking_of(engine.query_video(query, top_k=9)) == reference_clip_ranking(
            engine, query
        )

    @pytest.mark.parametrize("method", ["dtw", "align"])
    def test_session_corpus(self, ingested_system, clip, method):
        engine = self.engine(ingested_system, method, ingested_system.feature_store)
        want = reference_clip_ranking(engine, clip.frames)
        assert ranking_of(engine.query_video(clip, top_k=len(want))) == want

    def test_empty_store(self, ingested_system, clip):
        engine = self.engine(ingested_system, "dtw", FeatureStore())
        assert engine.query_video(clip, top_k=3) == []

    def test_empty_library_skips_the_clip_analysis(self, clip, monkeypatch):
        """Nothing to rank: no key-framing, no ``FeatureExtractor.extract``."""
        system = VideoRetrievalSystem.in_memory()
        engine = system.engine

        def never(*_args, **_kwargs):
            raise AssertionError("an empty library paid for clip analysis")

        monkeypatch.setattr(type(engine.keyframe_extractor), "extract", never)
        for extractor in engine.extractors.values():
            monkeypatch.setattr(type(extractor), "extract", never)
        assert system.search_by_video(clip, top_k=3) == []
        system.close()

    @pytest.mark.parametrize("interleave", [False, True])
    def test_ann_engine_stays_exact(self, ingested_system, clip, interleave):
        """With ``config.ann`` on a clip never probes the IVF index --
        also when video-major order is stack order and the plans name no
        rows, the case a vector query would probe."""
        store = relaid_store(self.records(ingested_system), self.LENGTHS, interleave)
        config = replace(ingested_system.config, ann=True, ann_cells=2, ann_nprobe=1)
        engine = SearchEngine(config, store, ingested_system._index)
        probes = dict(engine.ann.stats.as_dict())
        want = reference_clip_ranking(engine, clip.frames)
        assert ranking_of(engine.query_video(clip, top_k=len(want))) == want
        assert engine.ann.stats.as_dict() == probes
        # the same engine does probe for a vector query over the whole store
        vectors = {n: store.get(1).features[n] for n in config.features}
        engine.query_with_vectors(vectors, top_k=3)
        assert engine.ann.stats.n_probes == probes["probes"] + 1


class TestResultsContainer:
    def test_video_ids_deduplicated(self, ingested_system):
        results = ingested_system.search(ingested_system.any_key_frame(), top_k=50, use_index=False)
        vids = results.video_ids()
        assert len(vids) == len(set(vids))

    def test_to_rows_shape(self, ingested_system):
        results = ingested_system.search(ingested_system.any_key_frame(), top_k=2)
        rows = results.to_rows()
        assert rows[0]["rank"] == 1
        assert {"frame_id", "video", "category", "distance"} <= set(rows[0])

    def test_metadata_search(self, ingested_system):
        rows = ingested_system.search_by_name("%_000")
        assert len(rows) == 5  # one per category
        assert all(r["V_NAME"].endswith("_000") for r in rows)


class TestStableTopK:
    """_stable_topk must reproduce np.argsort(kind='stable')[:k] exactly."""

    def _check(self, fused, k):
        import numpy as np

        from repro.core.search import _stable_topk

        want = np.argsort(fused, kind="stable")[: max(0, k)]
        got = _stable_topk(np.asarray(fused, dtype=np.float64), max(0, k))
        assert np.array_equal(got, want), (fused, k)

    def test_tie_heavy_random_arrays(self):
        import numpy as np

        gen = np.random.default_rng(4242)
        for trial in range(50):
            n = int(gen.integers(1, 40))
            # few distinct values -> ties everywhere, including at the
            # selection boundary where argpartition ordering is arbitrary
            fused = gen.integers(0, 4, n).astype(np.float64)
            for k in (0, 1, n // 2, n - 1, n, n + 5):
                self._check(fused, k)

    def test_all_equal(self):
        self._check([2.0] * 7, 3)
        self._check([2.0] * 7, 7)

    def test_distinct_values(self):
        import numpy as np

        gen = np.random.default_rng(7)
        fused = gen.permutation(20).astype(np.float64)
        for k in (1, 5, 19, 20, 25):
            self._check(fused, k)

    def test_boundary_tie_straddles_cut(self):
        # value 1.0 occupies ranks 1..4; k=3 cuts through the tie run and
        # the stable order must keep the lowest original indices
        self._check([5.0, 1.0, 1.0, 0.0, 1.0, 1.0, 9.0], 3)

    def test_empty(self):
        self._check([], 0)
        self._check([], 3)
