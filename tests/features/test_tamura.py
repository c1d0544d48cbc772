"""Tamura texture tests."""

import numpy as np
import pytest

from repro.features.tamura import (
    TamuraTexture,
    coarseness,
    directionality,
    tamura_contrast,
)
from repro.imaging import accel
from repro.imaging.image import Image
from repro.imaging.synthetic import checkerboard, stripes


class TestCoarseness:
    def test_coarse_texture_scores_higher(self):
        fine = checkerboard(64, 64, cell=2)
        coarse = checkerboard(64, 64, cell=16)
        assert coarseness(coarse) > coarseness(fine)

    def test_range(self):
        gen = np.random.default_rng(0)
        c = coarseness(gen.integers(0, 256, (32, 32)).astype(float))
        assert 2.0 <= c <= 2.0**5

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            coarseness(np.zeros((4, 4, 3)))


class TestContrast:
    def test_constant_image_zero(self):
        assert tamura_contrast(np.full((8, 8), 77.0)) == 0.0

    def test_high_contrast_beats_low(self):
        lo = np.full((16, 16), 100.0)
        lo[:, ::2] = 110.0
        hi = np.full((16, 16), 0.0)
        hi[:, ::2] = 255.0
        assert tamura_contrast(hi) > tamura_contrast(lo)

    def test_bimodal_value(self):
        # half 0, half 255: sigma = 127.5, kurtosis alpha4 = 1 -> contrast 127.5
        a = np.zeros((2, 8))
        a[:, 4:] = 255.0
        assert tamura_contrast(a) == pytest.approx(127.5)


class TestDirectionality:
    def test_vertical_stripes_concentrate_histogram(self):
        img = stripes(64, 64, period=8, angle_deg=0.0)
        hist = directionality(img)
        assert hist.sum() > 0
        # most mass in one dominant bin neighbourhood
        top2 = np.sort(hist)[-2:].sum()
        assert top2 / hist.sum() > 0.6

    def test_rotation_moves_peak(self):
        h0 = directionality(stripes(64, 64, period=8, angle_deg=0.0))
        h90 = directionality(stripes(64, 64, period=8, angle_deg=90.0))
        assert np.argmax(h0) != np.argmax(h90)

    def test_flat_image_empty_histogram(self):
        assert directionality(np.full((16, 16), 50.0)).sum() == 0


class TestExtractor:
    def test_vector_layout(self, noise_image):
        fv = TamuraTexture().extract(noise_image)
        assert len(fv) == 18
        assert fv.tag == "Tamura"
        assert fv.values[0] > 0  # coarseness
        assert fv.values[1] > 0  # contrast on a noisy image

    def test_custom_bins(self, noise_image):
        fv = TamuraTexture(bins=8).extract(noise_image)
        assert len(fv) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TamuraTexture(bins=1)

    def test_texture_discrimination(self):
        ex = TamuraTexture()
        fine = Image.from_array(checkerboard(64, 64, cell=2))
        fine2 = Image.from_array(checkerboard(64, 64, cell=3))
        coarse = Image.from_array(checkerboard(64, 64, cell=16))
        d_near = ex.distance(ex.extract(fine), ex.extract(fine2))
        d_far = ex.distance(ex.extract(fine), ex.extract(coarse))
        assert d_near < d_far


class TestCoarsenessWindowPlans:
    @pytest.mark.parametrize("shape", [(48, 64), (2, 2), (3, 9), (71, 33), (4, 4), (1, 5)])
    @pytest.mark.parametrize("integral", [True, False])
    def test_bit_equal_to_the_fancy_index_form(self, shape, integral):
        gen = np.random.default_rng(sum(shape))
        gray = gen.integers(0, 256, shape).astype(np.float64) if integral else gen.random(shape) * 255
        fast = coarseness(gray)
        with accel.reference_paths():
            reference = coarseness(gray)
        assert fast == reference

    def test_plans_are_shared_and_read_only(self):
        from repro.features.tamura import _window_plans

        plans = _window_plans(48, 64, 4)
        assert plans is _window_plans(48, 64, 4)
        assert len(plans) == 4
        for plan in plans:
            for part in plan:
                with pytest.raises(ValueError):
                    part[...] = 0
