"""The runtime layer's pipeline guarantees.

Batched and scalar scoring must agree for every registered extractor; the
store's stacked matrices are its records' rows, read-only.  That rankings
match the scalar reference, and the matrices follow every add, delete and
rename, is the model test's (``tests/integration/test_stateful.py``).
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.features.base import all_extractors, get_extractor
from repro.imaging.image import Image
from repro.video.generator import make_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return make_corpus(videos_per_category=1, seed=42, n_shots=2, frames_per_shot=4)[:2]


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
        prepared = extractor.prepare_matrix(matrix)
        batched = extractor.batch_distance_prepared(query, prepared)
        scalar = np.array([extractor.distance(query, v) for v in rest])
        assert batched.shape == scalar.shape
        np.testing.assert_allclose(batched, scalar, atol=1e-9, rtol=0)
        # a scoring lane's half of a one-candidate plan is empty
        none = np.array([], dtype=np.intp)
        assert extractor.batch_distance_prepared(query, prepared, none).shape == (0,)
        assert extractor.batch_distance_prepared(query, prepared[:0]).shape == (0,)

    def test_kind_mismatch_rejected(self, vectors):
        extractor = get_extractor("sch")
        wrong = vectors["glcm"][0]
        with pytest.raises(ValueError):
            extractor.batch_distance_prepared(wrong, np.zeros((2, len(wrong))))

    def test_width_mismatch_rejected(self, vectors):
        extractor = get_extractor("sch")
        query = vectors["sch"][0]
        with pytest.raises(ValueError):
            extractor.batch_distance_prepared(query, np.zeros((2, len(query) + 1)))

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
        np.testing.assert_allclose(ex.batch_distance_prepared(q, matrix), [0.0, 3.0])


class TestFeatureMatrixCache:
    def _make_system(self, tiny_corpus):
        system = VideoRetrievalSystem.in_memory(SystemConfig())
        for video in tiny_corpus:
            system.admin.add_video(video)
        return system

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

    def test_unknown_frame_id_raises(self, tiny_corpus):
        system = self._make_system(tiny_corpus)
        with pytest.raises(KeyError):
            system._store.feature_matrix("sch", [99999])
        system.close()
