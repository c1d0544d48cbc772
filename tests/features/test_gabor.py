"""§4.4 Gabor texture tests: filter bank structure + orientation/scale selectivity."""

import numpy as np
import pytest

from repro.features.gabor import GaborTexture, gabor_filter_bank, gabor_responses
from repro.imaging.image import Image
from repro.imaging.synthetic import stripes


def _stripe_image(period, angle):
    return Image.from_array(stripes(64, 64, period=period, angle_deg=angle))


class TestFilterBank:
    def test_shape_and_positivity(self):
        bank = gabor_filter_bank((32, 48), scales=5, orientations=6)
        assert bank.shape == (30, 32, 48)
        assert np.all(bank >= 0) and np.all(bank <= 1.0 + 1e-12)

    def test_each_filter_peaks_at_its_frequency(self):
        bank = gabor_filter_bank((64, 64), scales=3, orientations=4)
        for i in range(bank.shape[0]):
            assert bank[i].max() > 0.9  # peak close to 1 on the grid

    def test_validation(self):
        with pytest.raises(ValueError):
            gabor_filter_bank((8, 8), scales=1)
        with pytest.raises(ValueError):
            gabor_filter_bank((8, 8), orientations=0)
        with pytest.raises(ValueError):
            gabor_filter_bank((8, 8), ul=0.5, uh=0.4)


class TestResponses:
    def test_shape(self):
        gen = np.random.default_rng(0)
        mags = gabor_responses(gen.normal(size=(32, 32)))
        assert mags.shape == (30, 32, 32)
        assert np.all(mags >= 0)

    def test_orientation_selectivity(self):
        """Vertical stripes must excite the 0-degree filter (variation along
        x) far more than the 90-degree filter."""
        img = stripes(64, 64, period=8, angle_deg=0.0)  # varies along x
        mags = gabor_responses(img, scales=3, orientations=4)
        # orientation index 0 = theta 0 (u along x); index 2 = theta 90
        energy = mags.mean(axis=(1, 2)).reshape(3, 4)
        horizontal_energy = energy[:, 0].max()
        vertical_energy = energy[:, 2].max()
        assert horizontal_energy > 3 * vertical_energy

    def test_scale_selectivity(self):
        fine = stripes(64, 64, period=4, angle_deg=0.0)
        coarse = stripes(64, 64, period=16, angle_deg=0.0)
        m_fine = gabor_responses(fine, scales=5, orientations=4).mean(axis=(1, 2)).reshape(5, 4)[:, 0]
        m_coarse = gabor_responses(coarse, scales=5, orientations=4).mean(axis=(1, 2)).reshape(5, 4)[:, 0]
        # scales ascend in frequency: fine texture peaks at a higher-frequency
        # scale than coarse texture
        assert np.argmax(m_fine) > np.argmax(m_coarse)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            gabor_responses(np.zeros((4, 4, 3)))

    @pytest.mark.parametrize(
        "shape",
        [(48, 64), (64, 48), (101, 103), (211, 223), (1, 9), (9, 1), (1, 127), (131, 1), (240, 320)],
    )
    def test_inverse_is_scipys_to_the_bit(self, shape):
        """Existing libraries hold the bytes of ``scipy.fft.ifft2``; the NumPy
        inverse (rows, scale, columns, in place) must be that transform
        exactly, not within a tolerance."""
        sfft = pytest.importorskip("scipy.fft")
        from repro.features.gabor import _bank

        gray = np.random.default_rng(sum(shape)).random(shape) * 255.0
        spectrum = np.fft.fft2(gray)
        expected = np.abs(
            sfft.ifft2(gabor_filter_bank(shape) * spectrum, axes=(-2, -1), overwrite_x=True)
        )
        try:
            assert np.array_equal(gabor_responses(gray), expected)
        finally:
            _bank.cache_clear()  # the large banks are tens of MB each


class TestExtractor:
    def test_sixty_dims_by_default(self, noise_image):
        fv = GaborTexture().extract(noise_image)
        assert len(fv) == 60
        assert fv.tag == "gabor"

    def test_mean_std_interleaved(self):
        img = _stripe_image(8, 0.0)
        fv = GaborTexture(scales=2, orientations=2).extract(img)
        assert len(fv) == 8
        means = fv.values[0::2]
        stds = fv.values[1::2]
        assert np.all(means >= 0) and np.all(stds >= 0)

    def test_flat_image_zero_texture_energy(self):
        fv = GaborTexture().extract(Image.blank(32, 32, (100, 100, 100)))
        # a constant image has no pass-band energy (tiny numerical residue ok)
        assert fv.values.max() < 1e-6 * 100 * 32 * 32

    def test_orientation_discrimination_in_distance(self):
        ex = GaborTexture()
        v0 = ex.extract(_stripe_image(8, 0.0))
        v0b = ex.extract(_stripe_image(8, 5.0))
        v90 = ex.extract(_stripe_image(8, 90.0))
        assert ex.distance(v0, v0b) < ex.distance(v0, v90)


class TestBankCache:
    def test_bank_is_shared_and_read_only(self):
        from repro.features.gabor import _bank

        bank = _bank((12, 16), 5, 6, 0.05, 0.4)
        assert bank is _bank((12, 16), 5, 6, 0.05, 0.4)
        with pytest.raises(ValueError):
            bank[0, 0, 0] = 1.0
        # the public builder still hands out a private, writable array
        assert gabor_filter_bank((12, 16)).flags.writeable

    def test_a_ninth_shape_evicts_one_bank_not_all(self, monkeypatch):
        from repro.features import gabor

        built = []
        build = gabor.gabor_filter_bank

        def counting(shape, *args):
            built.append(shape)
            return build(shape, *args)

        monkeypatch.setattr(gabor, "gabor_filter_bank", counting)
        gabor._bank.cache_clear()
        shapes = [(8, 8 + i) for i in range(9)]
        try:
            for shape in shapes:
                gabor_responses(np.zeros(shape))
            assert built == shapes
            del built[:]
            # the first shape was the least recently used: it alone rebuilds,
            # and the seven most recent banks are still there
            for shape in [shapes[0]] + shapes[2:]:
                gabor_responses(np.zeros(shape))
            assert built == [shapes[0]]
        finally:
            gabor._bank.cache_clear()
