"""§4.7 auto color correlogram tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.correlogram import (
    AutoColorCorrelogram,
    correlogram_counts,
    ring_offsets,
)
from repro.imaging import accel
from repro.imaging.image import Image


class TestRingOffsets:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_ring_size_is_8d(self, d):
        offsets = ring_offsets(d)
        assert len(offsets) == 8 * d
        assert len(set(offsets)) == len(offsets)  # no duplicates

    def test_all_at_linf_distance_d(self):
        for d in (1, 3):
            for dx, dy in ring_offsets(d):
                assert max(abs(dx), abs(dy)) == d

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ring_offsets(0)


class TestCounts:
    def test_solid_image_counts(self):
        # 4x4 solid color: pairs at distance 1 = sum over pixels of in-image
        # ring-1 neighbours; corner pixels have 3, edges 5, center 8
        q = np.zeros((4, 4), dtype=np.int64)
        counts = correlogram_counts(q, n_colors=2, max_distance=1)
        expected = 4 * 3 + 8 * 5 + 4 * 8  # corners, edges, interior
        assert counts[0, 0] == expected
        assert counts[1, 0] == 0

    def test_two_color_no_cross_pairs(self):
        q = np.zeros((2, 4), dtype=np.int64)
        q[:, 2:] = 1
        counts = correlogram_counts(q, n_colors=2, max_distance=1)
        # colors only pair with themselves; both halves are 2x2 blocks
        assert counts[0, 0] == counts[1, 0] > 0

    def test_hand_computed_1x2(self):
        q = np.array([[0, 0]], dtype=np.int64)
        counts = correlogram_counts(q, n_colors=1, max_distance=1)
        assert counts[0, 0] == 2  # each pixel sees the other

    def test_validation(self):
        with pytest.raises(ValueError):
            correlogram_counts(np.zeros((4,), dtype=np.int64), 2, 1)


class TestExtractor:
    def test_dimensions(self, noise_image):
        fv = AutoColorCorrelogram().extract(noise_image)
        assert len(fv) == 64 * 4
        assert fv.tag == "ACC"

    def test_max_normalization_bounds(self, noise_image):
        fv = AutoColorCorrelogram(normalization="max").extract(noise_image)
        assert fv.values.min() >= 0.0
        assert fv.values.max() <= 1.0 + 1e-12

    def test_probability_normalization_bounds(self, noise_image):
        fv = AutoColorCorrelogram(normalization="probability").extract(noise_image)
        assert fv.values.min() >= 0.0
        assert fv.values.max() <= 1.0 + 1e-12

    def test_solid_image_probability_interior(self):
        # on a large solid image most pixels have full rings: probability ~ 1
        img = Image.blank(32, 32, (200, 0, 0))
        fv = AutoColorCorrelogram(normalization="probability").extract(img)
        corr = fv.values.reshape(64, 4)
        occupied = corr[corr.sum(axis=1) > 0]
        assert occupied.shape[0] == 1  # one color present
        assert occupied[0, 0] > 0.85

    def test_spatial_structure_distinguishes_same_histogram(self):
        """Two images with the same color *histogram* but different layout
        must differ in the correlogram -- the paper's §4.7 motivation."""
        # clustered: left half red, right half blue
        clustered = np.zeros((16, 16, 3), dtype=np.uint8)
        clustered[:, :8, 0] = 255
        clustered[:, 8:, 2] = 255
        # interleaved columns: same 50/50 histogram, different adjacency
        striped = np.zeros((16, 16, 3), dtype=np.uint8)
        striped[:, ::2, 0] = 255
        striped[:, 1::2, 2] = 255
        ex = AutoColorCorrelogram(normalization="probability")
        d = ex.distance(ex.extract(Image(clustered)), ex.extract(Image(striped)))
        assert d > 0.5

    def test_custom_distance_count(self, noise_image):
        fv = AutoColorCorrelogram(max_distance=2).extract(noise_image)
        assert len(fv) == 64 * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoColorCorrelogram(max_distance=0)
        with pytest.raises(ValueError):
            AutoColorCorrelogram(normalization="l2")


class TestHalfPlaneCounting:
    """The fast path compares only one of each ``(offset, -offset)`` pair
    and doubles the integer counts; the reference path walks every offset."""

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 20),
        w=st.integers(1, 20),
        n_colors=st.sampled_from([2, 5, 64]),
        max_distance=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_bit_equal_to_the_offset_loop(self, h, w, n_colors, max_distance, seed):
        q = np.random.default_rng(seed).integers(0, n_colors, (h, w))
        fast = correlogram_counts(q, n_colors, max_distance)
        with accel.reference_paths():
            reference = correlogram_counts(q, n_colors, max_distance)
        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)

    def test_half_rings_hold_one_of_each_opposite_pair(self):
        from repro.features.correlogram import _half_ring_indices

        rings = _half_ring_indices(4)
        assert rings is _half_ring_indices(4)
        for d, (rows, cols) in enumerate(rings, start=1):
            assert len(rows) == 4 * d  # half of the ring's 8d offsets
            offsets = {(int(c) - 4, int(r)) for r, c in zip(rows, cols)}
            assert offsets | {(-dx, -dy) for dx, dy in offsets} == set(ring_offsets(d))
            with pytest.raises(ValueError):
                rows[...] = 0
