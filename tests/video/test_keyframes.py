"""§4.1 key-frame extraction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging import accel
from repro.imaging.image import Image
from repro.video.keyframes import (
    KeyFrameExtractor,
    extract_key_frames,
    frame_signature,
    frame_signature_distance,
)


def _flat(color):
    return Image.blank(32, 24, color)


class TestSignature:
    def test_shape(self, gradient_image):
        sig = frame_signature(gradient_image)
        assert sig.shape == (25, 3)

    def test_flat_image_signature_constant(self):
        sig = frame_signature(_flat((10, 20, 30)))
        assert np.allclose(sig, [10, 20, 30])

    def test_signature_scale_invariant(self, gradient_image):
        from repro.imaging.resize import resize

        small = frame_signature(gradient_image)
        big = frame_signature(resize(gradient_image, 128, 96))
        assert np.abs(small - big).max() < 12  # same content, same signature

    def test_distance_zero_for_identical(self, gradient_image):
        assert frame_signature_distance(gradient_image, gradient_image) == 0.0

    def test_distance_symmetric(self, gradient_image, noise_image):
        d1 = frame_signature_distance(gradient_image, noise_image)
        d2 = frame_signature_distance(noise_image, gradient_image)
        assert d1 == pytest.approx(d2)

    def test_distance_scales_with_difference(self):
        base = _flat((0, 0, 0))
        near = _flat((10, 10, 10))
        far = _flat((200, 200, 200))
        assert frame_signature_distance(base, near) < frame_signature_distance(base, far)

    def test_flat_color_distance_value(self):
        # 25 points, each Euclidean distance 30 -> total 750
        d = frame_signature_distance(_flat((0, 0, 0)), _flat((30, 0, 0)))
        assert d == pytest.approx(750.0)


class TestReplicationPlan:
    """The fast path contracts the source frame with integer replication
    weights; the reference path (``accel.reference_paths()``) rescales to
    ``base_size`` square first.  Every partial sum is an integer below
    2^53, so the two must agree bit for bit."""

    @pytest.mark.parametrize(
        "shape", [(1, 1, 3), (5, 301, 3), (301, 7, 3), (48, 64, 3), (48, 64), (300, 300, 3), (350, 400, 3)]
    )
    @pytest.mark.parametrize("kwargs", [{}, {"base_size": 64, "sample_size": 6}])
    def test_bit_equal_to_the_rescale(self, shape, kwargs):
        image = Image(np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8))
        fast = frame_signature(image, **kwargs)
        with accel.reference_paths():
            reference = frame_signature(image, **kwargs)
        assert fast.dtype == reference.dtype == np.float64
        assert np.array_equal(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        gray=st.booleans(),
        base_size=st.sampled_from([300, 64, 10]),
        seed=st.integers(0, 2**16),
    )
    def test_bit_equal_on_any_shape(self, h, w, gray, base_size, seed):
        shape = (h, w) if gray else (h, w, 3)
        image = Image(np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8))
        sample = max(1, base_size // 20)
        fast = frame_signature(image, base_size, 5, sample)
        with accel.reference_paths():
            reference = frame_signature(image, base_size, 5, sample)
        assert np.array_equal(fast, reference)

    def test_same_key_frames_as_the_rescale(self, sample_video):
        for extractor in (KeyFrameExtractor(), KeyFrameExtractor(base_size=64)):
            fast = [i for i, _frame in extractor.extract(sample_video.frames)]
            with accel.reference_paths():
                reference = [i for i, _frame in extractor.extract(sample_video.frames)]
            assert fast == reference

    def test_fast_path_never_rescales(self, gradient_image, monkeypatch):
        from repro.video import keyframes

        def no_rescale(*_args, **_kwargs):
            raise AssertionError("the fast path built the rescaled frame")

        monkeypatch.setattr(keyframes, "resize_array", no_rescale)
        assert frame_signature(gradient_image).shape == (25, 3)

    def test_plan_is_shared_and_read_only(self):
        from repro.video.keyframes import _signature_plan

        plan = _signature_plan(48, 64, 300, 5, 15)
        assert plan is _signature_plan(48, 64, 300, 5, 15)
        for part in plan:
            with pytest.raises(ValueError):
                part[...] = 0

    @pytest.mark.parametrize("shape", [(48, 64), (480, 640), (1000, 10)])
    def test_plan_never_reaches_more_than_the_windows(self, shape):
        from repro.video.keyframes import _signature_plan

        # a frame larger than the rescale costs what the rescale's windows
        # hold (5 windows of 30 per axis), not what the frame holds
        rows, cols, w_y, w_x, _n = _signature_plan(*shape, 300, 5, 15)
        assert len(rows) <= min(shape[0], 150) and len(cols) <= min(shape[1], 150)
        assert w_y.shape == (5, len(rows)) and w_x.shape == (5, len(cols))
        assert w_y.sum() == w_x.sum() == 150


class TestExtractor:
    def test_empty_input(self):
        assert extract_key_frames([]) == []

    def test_single_frame(self):
        frames = [_flat((5, 5, 5))]
        kept = extract_key_frames(frames)
        assert [i for i, _f in kept] == [0]

    def test_identical_frames_collapse_to_one(self):
        frames = [_flat((50, 60, 70))] * 8
        kept = extract_key_frames(frames)
        assert [i for i, _f in kept] == [0]

    def test_two_distinct_shots(self):
        # jump of 200 gray levels -> signature distance 25*200*sqrt(3) >> 800
        frames = [_flat((10, 10, 10))] * 4 + [_flat((210, 210, 210))] * 4
        kept = extract_key_frames(frames)
        assert [i for i, _f in kept] == [0, 4]

    def test_first_frame_always_kept(self):
        frames = [_flat((i, i, i)) for i in (0, 255, 0, 255)]
        kept = extract_key_frames(frames)
        assert kept[0][0] == 0

    def test_threshold_zero_keeps_everything_distinct(self):
        frames = [_flat((i * 20, 0, 0)) for i in range(5)]
        kept = extract_key_frames(frames, threshold=0.0)
        assert [i for i, _f in kept] == [0, 1, 2, 3, 4]

    def test_huge_threshold_keeps_only_first(self):
        frames = [_flat((i * 50, 0, 0)) for i in range(5)]
        kept = extract_key_frames(frames, threshold=1e9)
        assert [i for i, _f in kept] == [0]

    def test_paper_threshold_separates_shots(self, sample_video):
        kept = extract_key_frames(list(sample_video.frames), base_size=150)
        indices = [i for i, _f in kept]
        assert 0 in indices
        # a key frame at (or right after) the shot boundary
        assert any(sample_video.spec.frames_per_shot <= i for i in indices)

    def test_run_semantics_distance_from_kept_frame(self):
        """Frames drift gradually; each kept frame anchors its run, so a
        slow drift past the threshold still produces a new key frame."""
        frames = [_flat((i * 12, i * 12, i * 12)) for i in range(12)]
        kept = extract_key_frames(frames)  # 25*12*sqrt(3) ~ 520 per step
        indices = [i for i, _f in kept]
        assert len(indices) >= 2  # cumulative drift crosses 800
        assert indices[0] == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            KeyFrameExtractor(threshold=-1)
        with pytest.raises(ValueError):
            KeyFrameExtractor(grid=0)

    def test_returned_frames_are_the_inputs(self):
        frames = [_flat((0, 0, 0)), _flat((255, 255, 255))]
        kept = extract_key_frames(frames)
        assert kept[0][1] is frames[0]
        assert kept[1][1] is frames[1]
