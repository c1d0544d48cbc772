"""§4.3 GLCM texture tests with hand-computed references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.glcm import GlcmTexture, glcm_matrix, glcm_statistics
from repro.imaging import accel
from repro.imaging.image import Image


class TestGlcmMatrix:
    def test_normalized(self):
        gen = np.random.default_rng(0)
        g = gen.integers(0, 256, (10, 12), dtype=np.uint8)
        m = glcm_matrix(g)
        assert m.sum() == pytest.approx(1.0)
        assert np.all(m >= 0)

    def test_symmetric(self):
        gen = np.random.default_rng(1)
        g = gen.integers(0, 256, (8, 8), dtype=np.uint8)
        m = glcm_matrix(g)
        assert np.allclose(m, m.T)

    def test_constant_image_single_entry(self):
        g = np.full((5, 5), 42, dtype=np.uint8)
        m = glcm_matrix(g)
        assert m[42, 42] == pytest.approx(1.0)

    def test_hand_computed_two_level(self):
        # one row [0, 1]: single horizontal pair (0,1), symmetric -> both
        # (0,1) and (1,0) get probability 0.5
        g = np.array([[0, 1]], dtype=np.uint8)
        m = glcm_matrix(g)
        assert m[0, 1] == pytest.approx(0.5)
        assert m[1, 0] == pytest.approx(0.5)
        assert m[0, 0] == 0 and m[1, 1] == 0

    def test_step_two(self):
        g = np.array([[0, 5, 0, 5]], dtype=np.uint8)
        m = glcm_matrix(g, step=2)
        # pairs at distance 2: (0,0) and (5,5)
        assert m[0, 0] == pytest.approx(0.5)
        assert m[5, 5] == pytest.approx(0.5)
        assert m[0, 5] == 0

    def test_reduced_levels(self):
        gen = np.random.default_rng(2)
        g = gen.integers(0, 256, (6, 6), dtype=np.uint8)
        m = glcm_matrix(g, levels=8)
        assert m.shape == (8, 8)
        assert m.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            glcm_matrix(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            glcm_matrix(np.zeros((4, 4), dtype=np.uint8), step=4)


class TestStatistics:
    def test_constant_image_statistics(self):
        m = glcm_matrix(np.full((6, 6), 100, dtype=np.uint8))
        s = glcm_statistics(m)
        assert s["asm"] == pytest.approx(1.0)  # single cell with prob 1
        assert s["contrast"] == pytest.approx(0.0)
        assert s["idm"] == pytest.approx(1.0)
        assert s["entropy"] == pytest.approx(0.0)

    def test_checkerboard_contrast(self):
        # alternating 0/255 horizontally: every pair differs by 255
        g = np.zeros((4, 8), dtype=np.uint8)
        g[:, 1::2] = 255
        s = glcm_statistics(glcm_matrix(g))
        assert s["contrast"] == pytest.approx(255.0**2)
        assert s["idm"] == pytest.approx(1.0 / (1 + 255.0**2))

    def test_correlation_range(self):
        gen = np.random.default_rng(3)
        g = gen.integers(0, 256, (16, 16), dtype=np.uint8)
        s = glcm_statistics(glcm_matrix(g))
        assert -1.0 <= s["correlation"] <= 1.0

    def test_smooth_image_high_correlation(self):
        # horizontal ramp: neighbours are almost equal -> correlation ~ 1
        g = np.tile(np.arange(64, dtype=np.uint8) * 4, (8, 1))
        s = glcm_statistics(glcm_matrix(g))
        assert s["correlation"] > 0.9

    def test_paper_exact_correlation_differs(self):
        g = np.tile(np.arange(32, dtype=np.uint8) * 8, (4, 1))
        m = glcm_matrix(g)
        standard = glcm_statistics(m)["correlation"]
        paper = glcm_statistics(m, paper_exact=True)["correlation"]
        # the paper divides by the variance *product*, giving a tiny value
        assert abs(paper) < abs(standard)


class TestExtractor:
    def test_vector_layout(self, noise_image):
        fv = GlcmTexture().extract(noise_image)
        assert len(fv) == 6
        # pixelCounter = 2 * (300 - 1) * 300 after the paper's 300x300 rescale
        assert fv.values[0] == 2 * 299 * 300

    def test_no_preprocess_uses_native_size(self, noise_image):
        fv = GlcmTexture(preprocess=False).extract(noise_image)
        w, h = noise_image.width, noise_image.height
        assert fv.values[0] == 2 * (w - 1) * h

    def test_distinguishes_smooth_from_noisy(self):
        gen = np.random.default_rng(5)
        noisy = Image(gen.integers(0, 256, (32, 32), dtype=np.uint8))
        smooth = Image.from_array(np.tile(np.linspace(0, 255, 32), (32, 1)))
        ex = GlcmTexture(preprocess=False)
        f_noisy = ex.extract(noisy)
        f_smooth = ex.extract(smooth)
        # smooth image: higher IDM (index 4), lower contrast (index 2)
        assert f_smooth.values[4] > f_noisy.values[4]
        assert f_smooth.values[2] < f_noisy.values[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            GlcmTexture(levels=1)


class TestReplicationPlan:
    """The fast path counts co-occurrences on the source frame, weighted by
    how often the nearest-neighbour rescale replicates each pair; the
    reference path rescales first.  Counts are integers, so the matrices
    must agree bit for bit; only the statistics' summation order differs."""

    @staticmethod
    def _both(gray, step, levels, base_size):
        from repro.imaging.resize import resize_array

        fast = glcm_matrix(gray, step, levels, base_size)
        with accel.reference_paths():
            scaled = gray if base_size is None else resize_array(gray, base_size, base_size)
            reference = glcm_matrix(scaled, step, levels)
        return fast, reference

    @pytest.mark.parametrize("shape", [(48, 64), (1, 4), (5, 301), (301, 7), (300, 300), (350, 400)])
    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("levels", [256, 16])
    @pytest.mark.parametrize("preprocess", [True, False])
    def test_matrix_bit_equal_to_the_rescale(self, shape, step, levels, preprocess):
        gray = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
        fast, reference = self._both(gray, step, levels, 300 if preprocess else None)
        assert fast.dtype == reference.dtype == np.float64
        assert np.array_equal(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 24),
        w=st.integers(2, 24),
        step=st.sampled_from([1, 3]),
        levels=st.sampled_from([256, 16]),
        base_size=st.sampled_from([None, 30, 300]),
        n_values=st.sampled_from([2, 256]),
        seed=st.integers(0, 2**16),
    )
    def test_matrix_bit_equal_on_any_shape(self, h, w, step, levels, base_size, n_values, seed):
        if step >= (base_size or w):
            step = 1
        gray = np.random.default_rng(seed).integers(0, n_values, (h, w), dtype=np.uint8)
        fast, reference = self._both(gray, step, levels, base_size)
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize(
        "kwargs", [{}, {"step": 3}, {"levels": 16}, {"preprocess": False}, {"paper_exact": True}]
    )
    def test_statistics_match_the_full_grid(self, kwargs, noise_image, gradient_image):
        extractor = GlcmTexture(**kwargs)
        for image in (noise_image, gradient_image):
            fast = extractor.extract(Image(image.pixels)).values
            with accel.reference_paths():
                reference = extractor.extract(Image(image.pixels)).values
            assert fast[0] == reference[0]
            assert np.allclose(fast, reference, rtol=1e-12, atol=1e-15)

    def test_fast_path_never_rescales(self, noise_image, monkeypatch):
        from repro.features import glcm

        def no_rescale(*_args, **_kwargs):
            raise AssertionError("the fast path built the rescaled frame")

        monkeypatch.setattr(glcm, "resize_array", no_rescale)
        assert len(GlcmTexture().extract(noise_image)) == 6

    def test_plan_is_shared_and_read_only(self):
        from repro.features.glcm import _replication_plan

        plan = _replication_plan(48, 64, 300, 1)
        assert plan is _replication_plan(48, 64, 300, 1)
        for part in plan:
            with pytest.raises(ValueError):
                part[...] = 0
        # every pair of the 300 x 300 rescale is accounted for
        assert plan[3].sum() == 300 * 299

    @pytest.mark.parametrize("shape", [(300, 300), (480, 640)])
    @pytest.mark.parametrize("base_size", [300, None])
    def test_plan_never_holds_more_than_the_rescale(self, shape, base_size):
        from repro.features.glcm import _replication_plan

        # a frame at least as large as the rescale: one entry per rescaled
        # pair, each occurring once, so no weights at all
        rows, left, right, weights = _replication_plan(*shape, base_size, 1)
        height, width = (base_size, base_size) if base_size else shape
        assert len(rows) == height and len(left) == len(right) == width - 1
        assert weights is None
