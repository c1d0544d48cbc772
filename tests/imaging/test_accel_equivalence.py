"""Fast paths vs. reference paths.

Every optimisation behind ``accel.fast_paths_enabled()`` claims to be a
drop-in for the original code it replaced.  These tests hold it to that:
imaging primitives must match bit for bit, and whole feature vectors must
match exactly -- wherever the arithmetic is integer (replication-plan GLCM
counts and key-frame signatures, half-plane correlogram counts) or runs in
the same order (coarseness, thresholding), equality is the test, not a
tolerance.  Two extractors reorder float sums and get a tolerance fixed
from float64: glcm's statistics run over the non-zero cells instead of the
full grid, gabor's inverse transform is one batched in-place FFT taken
axis by axis (rows, the 1/(h*w) scale, columns) instead of a per-filter
``ifft2``.
"""

import numpy as np
import pytest

from repro.features.base import get_extractor
from repro.imaging import accel
from repro.imaging.color import quantize_uniform, rgb_to_gray, rgb_to_hsv
from repro.imaging.image import Image
from repro.imaging.resize import resize_array

# extractor -> (rtol, atol); None means bitwise equality is required
_TOLERANCES = {
    "sch": None,
    "acc": None,
    "tamura": None,
    "regions": None,
    "glcm": (1e-12, 1e-15),
    "gabor": (1e-9, 1e-12),
}


@pytest.fixture(params=["gradient", "noise"])
def pixels(request, gradient_image, noise_image):
    return {"gradient": gradient_image, "noise": noise_image}[request.param].pixels


def test_accel_toggles():
    assert accel.fast_paths_enabled()
    with accel.reference_paths():
        assert not accel.fast_paths_enabled()
        with accel.reference_paths():  # reentrant
            assert not accel.fast_paths_enabled()
    assert accel.fast_paths_enabled()


class TestImagingPrimitives:
    def test_rgb_to_gray(self, pixels):
        fast = rgb_to_gray(pixels)
        with accel.reference_paths():
            ref = rgb_to_gray(pixels)
        assert np.array_equal(fast, ref)

    def test_rgb_to_hsv(self, pixels):
        fast = rgb_to_hsv(pixels)
        with accel.reference_paths():
            ref = rgb_to_hsv(pixels)
        assert np.array_equal(fast, ref)

    def test_quantize_uniform(self):
        values = np.linspace(-10.0, 270.0, 997)
        fast = quantize_uniform(values, 16)
        with accel.reference_paths():
            ref = quantize_uniform(values, 16)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("size", [(17, 23), (300, 300), (8, 120)])
    def test_resize_nearest(self, pixels, size):
        w, h = size
        fast = resize_array(pixels, w, h)
        with accel.reference_paths():
            ref = resize_array(pixels, w, h)
        assert np.array_equal(fast, ref)
        gray = rgb_to_gray(pixels)
        fast2 = resize_array(gray, w, h)
        with accel.reference_paths():
            ref2 = resize_array(gray, w, h)
        assert np.array_equal(fast2, ref2)


class TestExtractorEquivalence:
    @pytest.mark.parametrize("name", sorted(_TOLERANCES))
    def test_fast_matches_reference(self, name, pixels):
        extractor = get_extractor(name)
        # fresh Image per run: the fast path memoizes gray() on the instance
        fast = extractor.extract(Image(pixels.copy())).values
        with accel.reference_paths():
            ref = extractor.extract(Image(pixels.copy())).values
        tol = _TOLERANCES[name]
        if tol is None:
            assert np.array_equal(fast, ref), name
        else:
            rtol, atol = tol
            assert np.allclose(fast, ref, rtol=rtol, atol=atol), name


class TestStoreGather:
    def test_subset_matrix_matches_reference(self, ingested_system):
        store = ingested_system._store
        ids = store.frame_ids()
        subsets = [ids, ids[::2], ids[:3], list(reversed(ids[:4])), [ids[0], ids[0]]]
        for subset in subsets:
            fast = store.feature_matrix("sch", subset)
            with accel.reference_paths():
                ref = store.feature_matrix("sch", subset)
            assert np.array_equal(fast, ref)

    def test_unknown_id_raises_on_both_paths(self, ingested_system):
        store = ingested_system._store
        missing = max(store.frame_ids()) + 1000
        with pytest.raises(KeyError):
            store.feature_matrix("sch", [missing])
        with accel.reference_paths():
            with pytest.raises(KeyError):
                store.feature_matrix("sch", [missing])

    def test_matrix_rows_round_trip(self, ingested_system):
        store = ingested_system._store
        ids = store.frame_ids()
        subset = ids[1::3]
        rows = store.matrix_rows(subset)
        base = store.feature_matrix("sch")
        assert np.array_equal(base[rows], store.feature_matrix("sch", subset))
        with pytest.raises(KeyError):
            store.matrix_rows([max(ids) + 7])


class TestSearchEquivalence:
    def test_query_results_match_reference_paths(self, ingested_system):
        from dataclasses import replace

        from repro.core.search import SearchEngine

        # a cacheless engine, so the reference run can't hit the fast run's
        # cached entry and skip its own scoring
        cfg = replace(ingested_system.config, query_cache_size=0)
        engine = SearchEngine(
            cfg,
            ingested_system._store,
            ingested_system._index,
            pool=ingested_system._engine._pool,
        )
        query = ingested_system.any_key_frame()
        fast = engine.query_frame(query, top_k=10, use_index=False).hits
        with accel.reference_paths():
            ref = engine.query_frame(query, top_k=10, use_index=False).hits
        assert [h.frame_id for h in fast] == [h.frame_id for h in ref]
        assert np.allclose(
            [h.distance for h in fast],
            [h.distance for h in ref],
            rtol=1e-6,
            atol=1e-9,
        )
