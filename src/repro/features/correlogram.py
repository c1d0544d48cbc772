"""Auto color correlogram (paper §4.7).

"A color correlogram expresses how the spatial correlation of pairs of
colors changes with distance."  The paper's pseudo-code:

1. quantize every pixel in HSV space (64 bins here: 8 hue x 4 sat x 2 val);
2. for each pixel, count same-color pixels in the L-inf ring at each
   distance ``d in 1..maxDistance`` (``getNumPixelsInNeighbourhood``);
3. accumulate per (color, distance) and normalize each distance column by
   its maximum over colors (steps 11-13 of the listing).

The §5.1 dump starts ``ACC 4 0.7046 ...`` -- maxDistance 4, values in
[0, 1].  Besides the paper's max normalization, the classic probability
normalization of Huang et al. (divide by ``hist[c] * 8d``) is available as
``normalization='probability'``.

Counting is vectorized: a ring at distance d has 8d offsets; for each
offset the whole image is compared against its shifted self, and matches
are histogrammed by color with one ``bincount``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, Rows, register_extractor
from repro.imaging import accel
from repro.imaging.color import quantize_hsv
from repro.imaging.image import Image

__all__ = ["AutoColorCorrelogram", "correlogram_counts", "ring_offsets"]


def ring_offsets(d: int):
    """The 8d offsets forming the L-inf ring at distance ``d``."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    offsets = []
    for dx in range(-d, d + 1):
        offsets.append((dx, -d))
        offsets.append((dx, d))
    for dy in range(-d + 1, d):
        offsets.append((-d, dy))
        offsets.append((d, dy))
    return offsets


def correlogram_counts(quantized: np.ndarray, n_colors: int, max_distance: int) -> np.ndarray:
    """Raw same-color pair counts: shape ``(n_colors, max_distance)``.

    ``counts[c, d-1]`` = number of ordered pixel pairs (p, q) with
    ``color(p) == color(q) == c`` and ``max(|dx|, |dy|) == d`` (q inside the
    image).
    """
    q = np.asarray(quantized)
    if q.ndim != 2:
        raise ValueError("quantized must be a 2-D index array")
    if accel.fast_paths_enabled() and q.size:
        return _correlogram_counts_windows(q, n_colors, max_distance)
    h, w = q.shape
    counts = np.zeros((n_colors, max_distance), dtype=np.float64)
    for d in range(1, max_distance + 1):
        for dx, dy in ring_offsets(d):
            # overlap region of the image with itself shifted by (dx, dy)
            y0a, y1a = max(0, -dy), h - max(0, dy)
            x0a, x1a = max(0, -dx), w - max(0, dx)
            if y0a >= y1a or x0a >= x1a:
                continue
            a = q[y0a:y1a, x0a:x1a]
            b = q[y0a + dy : y1a + dy, x0a + dx : x1a + dx]
            same = a == b
            if not same.any():
                continue
            counts[:, d - 1] += np.bincount(a[same].ravel(), minlength=n_colors)
    return counts


@lru_cache(maxsize=8)
def _half_ring_indices(max_distance: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Per distance, ``(rows, cols)`` into a ``(D+1, 2D+1)`` shift grid
    (``dy`` in ``[0, D]``, ``dx`` in ``[-D, D]``) of the ring's offsets in
    the half-plane ``dy > 0 or (dy == 0 and dx > 0)`` -- one of each
    ``(offset, -offset)`` pair.  Read-only."""
    rings = []
    for d in range(1, max_distance + 1):
        half = np.array(
            [(dy, max_distance + dx) for dx, dy in ring_offsets(d) if dy > 0 or (dy == 0 and dx > 0)]
        )
        rings.append(accel.read_only(half[:, 0], half[:, 1]))
    return tuple(rings)


def _correlogram_counts_windows(
    q: np.ndarray, n_colors: int, max_distance: int
) -> np.ndarray:
    """All-shifts-at-once counting: bitwise identical to the offset loop.

    The image is padded with a sentinel color so out-of-image neighbours
    can never match, and ``sliding_window_view`` exposes every shift as one
    ``(D+1, 2D+1, h, w)`` stack.  A single vectorized equality against the
    unshifted image replaces the per-offset Python loop; each ring then
    reduces its shift planes and histograms by color.  Only half of each
    ring is compared: ``p`` matches ``p + offset`` exactly when
    ``p + offset`` matches itself shifted by ``-offset``, so the two
    offsets count the same pairs per color and the half-ring count is
    doubled.  All quantities are small integer counts, so the float64
    bincount accumulation and the doubling are exact.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    h, w = q.shape
    d_max = max_distance
    padded = np.full((h + d_max, w + 2 * d_max), n_colors, dtype=q.dtype)
    padded[:h, d_max : d_max + w] = q
    windows = sliding_window_view(padded, (h, w))
    same = windows == q

    flat_q = q.ravel()
    counts = np.empty((n_colors, d_max), dtype=np.float64)
    for d, (rows, cols) in enumerate(_half_ring_indices(d_max), start=1):
        ring = same[rows, cols].sum(axis=0, dtype=np.int64)
        counts[:, d - 1] = 2.0 * np.bincount(
            flat_q, weights=ring.ravel().astype(np.float64), minlength=n_colors
        )
    return counts


@register_extractor
class AutoColorCorrelogram(FeatureExtractor):
    """§4.7 extractor: flattened ``(n_colors, max_distance)`` correlogram.

    ``normalization``:

    - ``'max'`` (paper): each distance column divided by its max over colors.
    - ``'probability'``: counts divided by ``hist[c] * 8d`` -- the
      conditional probability that a pixel at distance d has the same color.
    """

    name = "acc"
    tag = "ACC"

    def __init__(
        self,
        max_distance: int = 4,
        h_bins: int = 8,
        s_bins: int = 4,
        v_bins: int = 2,
        normalization: str = "max",
    ):
        if max_distance < 1:
            raise ValueError("max_distance must be >= 1")
        if normalization not in ("max", "probability"):
            raise ValueError(f"unknown normalization {normalization!r}")
        self.max_distance = max_distance
        self.h_bins = h_bins
        self.s_bins = s_bins
        self.v_bins = v_bins
        self.normalization = normalization

    @property
    def n_colors(self) -> int:
        return self.h_bins * self.s_bins * self.v_bins

    def extract(self, image: Image) -> FeatureVector:
        rgb = image.to_rgb().pixels
        quantized = quantize_hsv(rgb, self.h_bins, self.s_bins, self.v_bins)
        counts = correlogram_counts(quantized, self.n_colors, self.max_distance)
        if self.normalization == "max":
            col_max = counts.max(axis=0)
            corr = counts / np.maximum(col_max, 1e-12)[np.newaxis, :]
        else:
            hist = np.bincount(quantized.ravel(), minlength=self.n_colors).astype(np.float64)
            ring_sizes = 8.0 * np.arange(1, self.max_distance + 1)
            denom = hist[:, np.newaxis] * ring_sizes[np.newaxis, :]
            corr = counts / np.maximum(denom, 1e-12)
        return FeatureVector(kind=self.name, values=corr.ravel(), tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """L1 distance, the measure used in the original correlogram paper."""
        self._check_pair(a, b)
        return float(np.abs(a.values - b.values).sum())

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Vectorized L1 distances against a stacked matrix."""
        from repro.similarity.measures import l1_batch

        return l1_batch(q.values, self._check_batch(q, matrix), rows)
