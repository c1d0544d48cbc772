"""The runtime layer's pipeline guarantees.

Serial and parallel ingest must be indistinguishable byte-for-byte;
batched and scalar scoring must agree for every registered extractor; the
store's stacked-matrix cache must never serve stale data.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.features.base import all_extractors, get_extractor
from repro.imaging.image import Image
from repro.video.generator import VideoSpec, generate_video, make_corpus
from tests.core.clip_reference import reference_clip_ranking, reference_frame_ranking


@pytest.fixture(scope="module")
def tiny_corpus():
    return make_corpus(videos_per_category=1, seed=42, n_shots=2, frames_per_shot=4)[:3]


def _ingest_all(config, corpus):
    system = VideoRetrievalSystem.in_memory(config)
    for video in corpus:
        system.admin.add_video(video)
    return system


class TestSerialVsParallelIngest:
    @pytest.fixture(scope="class")
    def systems(self, tiny_corpus):
        serial = _ingest_all(SystemConfig(workers=1), tiny_corpus)
        parallel = _ingest_all(SystemConfig(workers=2), tiny_corpus)
        yield serial, parallel
        serial.close()
        parallel.close()

    def test_feature_strings_byte_identical(self, systems):
        serial, parallel = systems
        assert serial._store.frame_ids() == parallel._store.frame_ids()
        for fid in serial._store.frame_ids():
            a, b = serial._store.get(fid), parallel._store.get(fid)
            assert a.bucket == b.bucket
            assert set(a.features) == set(b.features)
            for name in a.features:
                assert a.features[name].to_string() == b.features[name].to_string()

    def test_query_frame_rankings_identical(self, systems, tiny_corpus):
        serial, parallel = systems
        for video in tiny_corpus:
            query = video.frames[1]
            hits_s = serial.search(query, top_k=10, use_index=False)
            hits_p = parallel.search(query, top_k=10, use_index=False)
            assert [h.frame_id for h in hits_s] == [h.frame_id for h in hits_p]
            assert [h.distance for h in hits_s] == [h.distance for h in hits_p]

    def test_db_rows_identical(self, systems):
        serial, parallel = systems
        rows_s = serial.db.execute("SELECT * FROM KEY_FRAMES ORDER BY I_ID").rows
        rows_p = parallel.db.execute("SELECT * FROM KEY_FRAMES ORDER BY I_ID").rows
        assert rows_s == rows_p


class TestBatchedVsScalarDistances:
    @pytest.fixture(scope="class")
    def vectors(self):
        rng = np.random.default_rng(8)
        images = [
            Image(rng.integers(0, 256, (40, 52, 3), dtype=np.uint8)) for _ in range(5)
        ]
        return {
            name: [get_extractor(name).extract(img) for img in images]
            for name in all_extractors()
        }

    @pytest.mark.parametrize("name", all_extractors())
    def test_every_registered_extractor_agrees(self, vectors, name):
        extractor = get_extractor(name)
        vecs = vectors[name]
        query, rest = vecs[0], vecs[1:]
        matrix = np.stack([v.values for v in rest])
        batched = extractor.batch_distance(query, matrix)
        scalar = np.array([extractor.distance(query, v) for v in rest])
        assert batched.shape == scalar.shape
        np.testing.assert_allclose(batched, scalar, atol=1e-9, rtol=0)

    def test_kind_mismatch_rejected(self, vectors):
        extractor = get_extractor("sch")
        wrong = vectors["glcm"][0]
        with pytest.raises(ValueError):
            extractor.batch_distance(wrong, np.zeros((2, len(wrong))))

    def test_width_mismatch_rejected(self, vectors):
        extractor = get_extractor("sch")
        query = vectors["sch"][0]
        with pytest.raises(ValueError):
            extractor.batch_distance(query, np.zeros((2, len(query) + 1)))

    def test_base_fallback_loops_overridden_scalar(self):
        from repro.features.base import FeatureExtractor, FeatureVector

        class Oddball(FeatureExtractor):
            name = "oddball"
            tag = "ODD"

            def extract(self, image):  # pragma: no cover - unused
                raise NotImplementedError

            def distance(self, a, b):
                self._check_pair(a, b)
                return float(np.max(np.abs(a.values - b.values)))

        ex = Oddball()
        q = FeatureVector(kind="oddball", values=np.array([1.0, 2.0]))
        matrix = np.array([[1.0, 2.0], [4.0, 0.0]])
        np.testing.assert_allclose(ex.batch_distance(q, matrix), [0.0, 3.0])


class TestFeatureMatrixCache:
    def _make_system(self, tiny_corpus):
        return _ingest_all(SystemConfig(), tiny_corpus[:2])

    def test_rows_match_records(self, tiny_corpus):
        system = self._make_system(tiny_corpus)
        store = system._store
        ids = store.frame_ids()
        matrix = store.feature_matrix("sch", ids)
        for row, fid in zip(matrix, ids):
            np.testing.assert_array_equal(row, store.get(fid).features["sch"].values)
        system.close()

    def test_full_matrix_is_cached_and_readonly(self, tiny_corpus):
        system = self._make_system(tiny_corpus)
        store = system._store
        first = store.feature_matrix("sch")
        again = store.feature_matrix("sch")  # a view of the store's own column
        assert again.shape == first.shape and np.shares_memory(again, first)
        assert not first.flags.writeable
        system.close()

    def test_invalidated_on_add(self, tiny_corpus):
        system = self._make_system(tiny_corpus)
        store = system._store
        before = store.feature_matrix("sch")
        system.admin.add_video(tiny_corpus[2])
        after = store.feature_matrix("sch")
        assert after.shape[0] == before.shape[0] + len(
            store.frames_of_video(3)
        )
        assert after.shape[0] == len(store)
        system.close()

    def test_invalidated_on_remove_video(self, tiny_corpus):
        system = self._make_system(tiny_corpus)
        store = system._store
        before = store.feature_matrix("sch")
        removed = len(store.frames_of_video(1))
        system.admin.delete_video(1)
        after = store.feature_matrix("sch")
        assert after.shape[0] == before.shape[0] - removed
        assert store.frames_of_video(1) == []
        system.close()

    def test_unknown_frame_id_raises(self, tiny_corpus):
        system = self._make_system(tiny_corpus)
        with pytest.raises(KeyError):
            system._store.feature_matrix("sch", [99999])
        system.close()


class TestBatchedVsScalarSearch:
    """The engine's one (prepared, batched) path against the scalar reference."""

    @pytest.fixture(scope="class")
    def system(self, tiny_corpus):
        system = _ingest_all(SystemConfig(), tiny_corpus)
        yield system
        system.close()

    def test_query_frame_identical_rankings(self, system, tiny_corpus):
        query = tiny_corpus[0].frames[2]
        for features in (None, ["sch"]):  # fused, and one feature alone
            hits = system.search(query, features=features, top_k=10, use_index=False)
            want = reference_frame_ranking(
                system.engine, query, 10, features=features, use_index=False
            )
            assert [h.frame_id for h in hits] == [fid for fid, _d, _pf in want]
            np.testing.assert_allclose(
                [h.distance for h in hits], [d for _fid, d, _pf in want], atol=1e-9
            )
            for hit, (_fid, _d, per_feature) in zip(hits, want):
                assert hit.per_feature.keys() == per_feature.keys()
                np.testing.assert_allclose(
                    list(hit.per_feature.values()), list(per_feature.values()),
                    atol=1e-9,
                )

    def test_query_video_identical_rankings(self, system):
        clip = generate_video(
            VideoSpec(category="news", seed=321, n_shots=2, frames_per_shot=4)
        )
        matches = system.search_by_video(clip, top_k=5)
        want = reference_clip_ranking(system.engine, clip.frames)[:5]
        assert [m.video_id for m in matches] == [vid for vid, _d in want]
        np.testing.assert_allclose(
            [m.distance for m in matches], [d for _vid, d in want], atol=1e-9
        )


class TestRenameInPlace:
    def test_rename_updates_store_without_rebuild(self, tiny_corpus):
        system = _ingest_all(SystemConfig(), tiny_corpus[:2])
        store = system._store
        matrix_before = store.feature_matrix("sch")
        frame_ids = [r.frame_id for r in store.frames_of_video(1)]
        system.admin.rename_video(1, "fresh_name")
        assert all(
            store.get(fid).video_name == "fresh_name" for fid in frame_ids
        )
        # metadata-only: other videos untouched, the matrix is the same memory
        assert store.frames_of_video(2)[0].video_name != "fresh_name"
        assert np.shares_memory(store.feature_matrix("sch"), matrix_before)
        assert system.list_videos()[0]["V_NAME"] == "fresh_name"
        system.close()
