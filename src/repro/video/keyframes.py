"""Key-frame extraction (paper §4.1).

The paper's algorithm walks the ordered frame list, keeping the first frame
of each run of mutually-similar frames and deleting the rest::

    i = 0
    while i < len(frames):
        keep frame i
        j = i + 1
        while j < len(frames) and dist(frame_i, frame_j) <= threshold:
            delete frame j; j += 1
        i = j

``dist`` is computed between *rescaled versions* of the frames ("rescaled
IVersion of image file", §4.1) and compared against the constant ``800.0``.
The rescale + 25-point signature used here is exactly the naive descriptor of
§4.6 (300x300 nearest-neighbour rescale, 25 block means), with the distance
being the summed Euclidean distance between corresponding mean colors --
which makes 800.0 a workable threshold (identical frames score 0, a shot
change scores in the thousands).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.imaging import accel
from repro.imaging.image import Image
from repro.imaging.resize import nearest_indices, resize_array

__all__ = [
    "KeyFrameExtractor",
    "extract_key_frames",
    "frame_signature",
    "frame_signature_distance",
]

#: The paper's similarity threshold ("if (dist > 800.0)").
PAPER_THRESHOLD = 800.0
#: §4.6: "float scaleW = 300, scaleH = 300".
BASE_SIZE = 300
#: §4.6: 25 representative locations on a 5x5 grid.
GRID = 5
#: §4.6: "Let sampleSize = 15" -- half-width of the averaging window.
SAMPLE_SIZE = 15


def _windows(base_size: int, grid: int, sample_size: int) -> Iterator[Tuple[int, int]]:
    """``[lo, hi)`` bounds of the ``grid`` sampling windows along one axis."""
    for g in range(grid):
        centre = int((g + 0.5) / grid * base_size)
        yield max(0, centre - sample_size), min(base_size, centre + sample_size)


@lru_cache(maxsize=8)
def _signature_plan(
    h: int, w: int, base_size: int, grid: int, sample_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replication plan ``(rows, cols, W_y, W_x, n)`` of the signature for
    ``h x w`` frames.

    A nearest-neighbour rescale only replicates source pixels, so the sum
    over a window of the rescaled frame is a weighted sum over the source:
    ``rows`` are the source rows some window reaches -- never more than the
    windows have -- and ``W_y[g, i]`` counts how often ``rows[i]`` lands in
    window ``g`` (likewise ``cols`` and ``W_x``); ``n[gy * grid + gx]`` is
    the window's pixel count.  Read-only: every frame of that shape shares
    them.
    """
    spans = list(_windows(base_size, grid, sample_size))

    def axis(src: int) -> Tuple[np.ndarray, np.ndarray]:
        index = nearest_indices(src, base_size)
        counts = np.array([np.bincount(index[lo:hi], minlength=src) for lo, hi in spans])
        reached = np.flatnonzero(counts.any(axis=0))
        return reached, counts[:, reached].astype(np.float64)

    rows, w_y = axis(h)
    cols, w_x = axis(w)
    extent = np.array([hi - lo for lo, hi in spans], dtype=np.float64)
    return accel.read_only(rows, cols, w_y, w_x, np.outer(extent, extent).reshape(-1, 1))


def frame_signature(image: Image, base_size: int = BASE_SIZE, grid: int = GRID, sample_size: int = SAMPLE_SIZE) -> np.ndarray:
    """25-point mean-color signature of a frame (the §4.6 descriptor).

    The frame is rescaled to ``base_size`` square with nearest-neighbour
    interpolation, then for each of ``grid x grid`` locations the mean RGB of
    the surrounding ``2*sample_size`` window is taken.  The fast path never
    builds the rescaled frame: it contracts the source with the
    :func:`_signature_plan` weights, and because every partial sum is an
    integer below 2^53 the result equals the rescale's bit for bit.

    Returns a float64 array of shape ``(grid*grid, 3)``.
    """
    pixels = image.to_rgb().pixels
    if accel.fast_paths_enabled():
        rows, cols, w_y, w_x, n = _signature_plan(*pixels.shape[:2], base_size, grid, sample_size)
        src = pixels.take(rows, axis=0).take(cols, axis=1).astype(np.float64)
        sums = (w_y @ src.reshape(len(rows), -1)).reshape(grid, len(cols), 3)
        return np.matmul(w_x, sums).reshape(grid * grid, 3) / n
    scaled = resize_array(pixels, base_size, base_size, "nearest").astype(np.float64)
    sig = np.empty((grid * grid, 3))
    k = 0
    for y0, y1 in _windows(base_size, grid, sample_size):
        for x0, x1 in _windows(base_size, grid, sample_size):
            sig[k] = scaled[y0:y1, x0:x1].reshape(-1, 3).mean(axis=0)
            k += 1
    return sig


def frame_signature_distance(a: Image, b: Image, **kwargs) -> float:
    """Summed Euclidean distance between the two frames' 25-point signatures."""
    sa = frame_signature(a, **kwargs)
    sb = frame_signature(b, **kwargs)
    return float(np.sum(np.sqrt(np.sum((sa - sb) ** 2, axis=1))))


@dataclass(frozen=True)
class KeyFrameExtractor:
    """Configurable §4.1 extractor.

    ``threshold`` is the paper's 800.0 by default.  ``base_size`` may be
    lowered (e.g. to 64) to trade fidelity for speed; the signature is scale
    normalized so the threshold keeps its meaning.
    """

    threshold: float = PAPER_THRESHOLD
    base_size: int = BASE_SIZE
    grid: int = GRID
    sample_size: int = SAMPLE_SIZE

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.grid < 1 or self.base_size < self.grid:
            raise ValueError("grid must be >= 1 and base_size >= grid")

    def signature(self, frame: Image) -> np.ndarray:
        sample = min(self.sample_size, max(1, self.base_size // (2 * self.grid)))
        return frame_signature(frame, self.base_size, self.grid, sample)

    def extract(self, frames: Sequence[Image]) -> List[Tuple[int, Image]]:
        """Run the greedy similar-run collapse; returns ``(index, frame)`` pairs.

        The first frame is always a key frame (the paper: "take 1st as
        key-frame"), and every kept frame is the first of a maximal run whose
        members are all within ``threshold`` of it.
        """
        if not frames:
            return []
        signatures = [self.signature(f) for f in frames]
        kept: List[Tuple[int, Image]] = []
        i = 0
        n = len(frames)
        while i < n:
            kept.append((i, frames[i]))
            j = i + 1
            while j < n:
                dist = float(
                    np.sum(np.sqrt(np.sum((signatures[i] - signatures[j]) ** 2, axis=1)))
                )
                if dist > self.threshold:
                    break
                j += 1
            i = j
        return kept


def extract_key_frames(
    frames: Sequence[Image], threshold: float = PAPER_THRESHOLD, **kwargs
) -> List[Tuple[int, Image]]:
    """Functional wrapper around :class:`KeyFrameExtractor`."""
    return KeyFrameExtractor(threshold=threshold, **kwargs).extract(frames)
