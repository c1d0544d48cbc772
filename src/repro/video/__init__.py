"""Video substrate: container format, synthetic corpus, key-frame extraction.

The paper pulls videos from archive.org, splits them into JPEG frames with an
external converter, and picks key frames with a threshold rule (§4.1).  Here:

- :mod:`repro.video.codec` -- the RVF container format (a self-describing
  frame stream, raw or RLE-compressed) with a writer and a streaming reader.
- :mod:`repro.video.generator` -- a deterministic synthetic video generator
  with five scene categories mirroring the paper's corpus (e-learning,
  sports, cartoon, movies, news).
- :mod:`repro.video.shots` -- frame-distance and shot-boundary helpers.
- :mod:`repro.video.keyframes` -- the §4.1 key-frame extraction algorithm.
"""

from repro import _lazy_getattr
from repro.video.codec import RvfError, RvfReader, RvfWriter, read_rvf, write_rvf
from repro.video.keyframes import KeyFrameExtractor, extract_key_frames, frame_signature_distance
from repro.video.shots import cut_indices, frame_distances

#: imported on first use: the generator brings the rasterizer and the
#: synthetic-texture module with it, and only corpus builders render videos
_LAZY = {
    name: "repro.video.generator"
    for name in ("CATEGORIES", "SyntheticVideo", "VideoSpec", "generate_video", "make_corpus")
}

__all__ = [
    "RvfReader",
    "RvfWriter",
    "RvfError",
    "read_rvf",
    "write_rvf",
    "CATEGORIES",
    "SyntheticVideo",
    "VideoSpec",
    "generate_video",
    "make_corpus",
    "KeyFrameExtractor",
    "extract_key_frames",
    "frame_signature_distance",
    "frame_distances",
    "cut_indices",
]

__getattr__ = _lazy_getattr(globals(), _LAZY)
