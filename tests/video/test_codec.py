"""RVF container format tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.image import Image
from repro.video.codec import (
    RvfError,
    RvfReader,
    RvfWriter,
    encode_rvf_bytes,
    read_rvf,
    rle_decode,
    rle_encode,
    rle_size,
    write_rvf,
)


def _rle_reference(data: bytes) -> bytes:
    """The per-run loop ``rle_encode`` replaced: the byte-exact oracle."""
    out = bytearray()
    i = 0
    while i < len(data):
        j = i
        while j < len(data) and data[j] == data[i]:
            j += 1
        run = j - i
        while run > 255:
            out += bytes((255, data[i]))
            run -= 255
        out += bytes((run, data[i]))
        i = j
    return bytes(out)


#: byte strings made of a few long runs, so lengths around the 255 cap occur
_runs = st.lists(
    st.tuples(
        st.integers(0, 255),
        st.one_of(st.integers(1, 4), st.sampled_from([254, 255, 256, 509, 510, 511, 765, 766])),
    ),
    max_size=8,
).map(lambda runs: b"".join(bytes([value]) * length for value, length in runs))


@st.composite
def _videos(draw):
    """One-row gray frames on both sides of the RLE/RAW tie: random,
    constant and two-run frames, 1 or 2 bytes wide or runs of 255 / 256 /
    510 / 511 bytes."""
    width = draw(st.sampled_from([1, 2, 255, 256, 510, 511]))
    kinds = draw(st.lists(st.sampled_from(["random", "constant", "two_runs"]), min_size=1, max_size=6))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    frames = []
    for kind in kinds:
        if kind == "random":
            row = gen.integers(0, 256, width, dtype=np.uint8)
        elif kind == "constant":
            row = np.full(width, gen.integers(256), dtype=np.uint8)
        else:
            row = np.where(np.arange(width) < gen.integers(width + 1), 3, 250).astype(np.uint8)
        frames.append(Image(row.reshape(1, width)))
    return frames


def _frames(seed, n, h=12, w=16, gray=False):
    gen = np.random.default_rng(seed)
    shape = (h, w) if gray else (h, w, 3)
    return [Image(gen.integers(0, 256, shape, dtype=np.uint8)) for _ in range(n)]


class TestRle:
    def test_empty(self):
        assert rle_encode(b"") == b""
        assert rle_decode(b"", 0) == b""

    def test_simple_runs(self):
        data = b"\x05" * 300 + b"\x07" * 2
        encoded = rle_encode(data)
        assert rle_decode(encoded, len(data)) == data
        # 300 = 255 + 45 -> two pairs, plus one pair for the 7s
        assert len(encoded) == 6

    def test_alternating_worst_case(self):
        data = bytes(range(256)) * 2
        encoded = rle_encode(data)
        assert len(encoded) == 2 * len(data)
        assert rle_decode(encoded, len(data)) == data

    def test_decode_length_mismatch(self):
        with pytest.raises(RvfError):
            rle_decode(rle_encode(b"abc"), 5)

    def test_decode_odd_length(self):
        with pytest.raises(RvfError):
            rle_decode(b"\x01\x02\x03", 1)

    @pytest.mark.parametrize("run", [1, 254, 255, 256, 509, 510, 511, 765, 766])
    def test_run_lengths_around_the_cap(self, run):
        data = b"\x09" + b"\x05" * run + b"\x07" * 2
        encoded = rle_encode(data)
        assert encoded == _rle_reference(data)
        assert len(encoded) == 2 * (2 + -(-run // 255))
        assert rle_decode(encoded, len(data)) == data

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=2000))
    def test_roundtrip_property(self, data):
        assert rle_decode(rle_encode(data), len(data)) == data

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.binary(min_size=0, max_size=2000), _runs))
    def test_matches_reference(self, data):
        encoded = rle_encode(data)
        assert encoded == _rle_reference(data)
        assert rle_decode(encoded, len(data)) == data

    def test_no_python_loop_over_runs(self):
        import ast
        import inspect

        tree = ast.parse(inspect.getsource(rle_encode))
        loops = (ast.For, ast.While, ast.comprehension)
        assert not [node for node in ast.walk(tree) if isinstance(node, loops)]


class TestWriterReader:
    def test_roundtrip_rgb(self):
        frames = _frames(0, 5)
        reader = RvfReader(encode_rvf_bytes(frames))
        assert len(reader) == 5
        assert list(reader) == frames
        assert reader.width == 16 and reader.height == 12 and reader.channels == 3

    def test_roundtrip_gray(self):
        frames = _frames(1, 3, gray=True)
        reader = RvfReader(encode_rvf_bytes(frames))
        assert reader.channels == 1
        assert list(reader) == frames

    def test_random_access_and_negative_index(self):
        frames = _frames(2, 6)
        reader = RvfReader(encode_rvf_bytes(frames))
        assert reader[3] == frames[3]
        assert reader[-1] == frames[-1]
        assert reader[1:4] == frames[1:4]

    def test_index_out_of_range(self):
        reader = RvfReader(encode_rvf_bytes(_frames(3, 2)))
        with pytest.raises(IndexError):
            reader[5]

    def test_empty_stream_rejected(self):
        with pytest.raises(RvfError):
            RvfWriter().to_bytes()

    def test_shape_mismatch_rejected(self):
        w = RvfWriter()
        w.append(Image.blank(8, 8, 0))
        with pytest.raises(RvfError):
            w.append(Image.blank(9, 8, 0))

    def test_non_image_rejected(self):
        with pytest.raises(TypeError):
            RvfWriter().append(np.zeros((4, 4), dtype=np.uint8))

    def test_fps_metadata(self):
        w = RvfWriter(fps=30)
        w.append(Image.blank(4, 4, 0))
        assert RvfReader(w.to_bytes()).fps == 30

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            RvfWriter(codec="h264")


class TestCodecSelection:
    def test_auto_picks_rle_for_flat_frames(self):
        frames = [Image.blank(32, 32, (i, i, i)) for i in range(4)]
        auto = encode_rvf_bytes(frames, codec="auto")
        raw = encode_rvf_bytes(frames, codec="raw")
        assert len(auto) < len(raw)

    def test_auto_picks_raw_for_noise(self):
        frames = _frames(4, 3, h=20, w=20)
        auto = encode_rvf_bytes(frames, codec="auto")
        rle = encode_rvf_bytes(frames, codec="rle")
        assert len(auto) < len(rle)

    def test_forced_rle_roundtrips_noise(self):
        frames = _frames(5, 2)
        assert list(RvfReader(encode_rvf_bytes(frames, codec="rle"))) == frames

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.binary(min_size=0, max_size=2000), _runs))
    def test_rle_size_is_the_encoded_length(self, data):
        assert rle_size(data) == len(rle_encode(data))

    @settings(max_examples=150, deadline=None)
    @given(_videos())
    def test_auto_equals_the_trial_encode(self, frames):
        """``auto`` sizes RLE from the run lengths; the bytes are those of
        the writer that RLE-encoded every frame and kept the smaller total."""
        raw_total = sum(f.pixels.nbytes for f in frames)
        rle_total = sum(len(rle_encode(f.pixels.tobytes())) for f in frames)
        trial = "rle" if rle_total < raw_total else "raw"
        assert encode_rvf_bytes(frames) == encode_rvf_bytes(frames, codec=trial)


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(RvfError):
            RvfReader(b"XXXX" + b"\x00" * 64)

    def test_short_data(self):
        with pytest.raises(RvfError):
            RvfReader(b"RV")

    def test_truncated_frame_table(self):
        data = encode_rvf_bytes(_frames(6, 4))
        with pytest.raises(RvfError):
            RvfReader(data[:40])

    def test_truncated_frame_data(self):
        data = encode_rvf_bytes(_frames(7, 4))
        with pytest.raises(RvfError):
            RvfReader(data[:-10])


class TestFileIo:
    def test_write_and_read_file(self, tmp_path):
        frames = _frames(8, 4)
        path = tmp_path / "clip.rvf"
        write_rvf(frames, path)
        assert read_rvf(path) == frames
