"""Simple color histogram (paper §4.5).

"The color space of frame is quantized into a finite number of discrete
levels.  Each of this level becomes bin in the histogram."  The paper's
sample dump (``RGB 256 19401 2570 ...``) shows a 256-bin histogram of RGB
frames whose bins are pixel counts.

The default quantizer maps each RGB pixel to one of 256 product bins
(8 levels of R x 8 of G x 4 of B, the classic RGB-256 layout); an ``HSV``
mode (8x4x2 = 64 bins) matches the correlogram's color space.
"""

from __future__ import annotations

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, Rows, register_extractor
from repro.imaging.color import quantize_hsv, quantize_uniform
from repro.imaging.image import Image

__all__ = ["SimpleColorHistogram"]


@register_extractor
class SimpleColorHistogram(FeatureExtractor):
    """256-bin quantized RGB histogram (or 64-bin HSV histogram).

    ``normalize=False`` keeps raw pixel counts, matching the paper's dump;
    the distance always normalizes internally so frame size cancels out.
    """

    name = "sch"
    tag = "RGB"

    def __init__(self, histogram_type: str = "RGB", normalize: bool = False):
        histogram_type = histogram_type.upper()
        if histogram_type not in ("RGB", "HSV"):
            raise ValueError(f"histogram_type must be 'RGB' or 'HSV', got {histogram_type!r}")
        self.histogram_type = histogram_type
        self.normalize = normalize
        self.tag = histogram_type

    @property
    def n_bins(self) -> int:
        return 256 if self.histogram_type == "RGB" else 64

    def _bin_indices(self, rgb: np.ndarray) -> np.ndarray:
        if self.histogram_type == "RGB":
            r = quantize_uniform(rgb[..., 0], 8)
            g = quantize_uniform(rgb[..., 1], 8)
            b = quantize_uniform(rgb[..., 2], 4)
            return (r * 8 + g) * 4 + b
        return quantize_hsv(rgb, h_bins=8, s_bins=4, v_bins=2)

    def extract(self, image: Image) -> FeatureVector:
        rgb = image.to_rgb().pixels
        idx = self._bin_indices(rgb)
        hist = np.bincount(idx.ravel(), minlength=self.n_bins).astype(np.float64)
        if self.normalize:
            hist = hist / max(1.0, hist.sum())
        return FeatureVector(kind=self.name, values=hist, tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """L1 distance between the L1-normalized histograms (in [0, 2])."""
        self._check_pair(a, b)
        pa = a.values / max(1e-12, a.values.sum())
        pb = b.values / max(1e-12, b.values.sum())
        return float(np.abs(pa - pb).sum())

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Vectorized normalized-histogram L1 distances."""
        m = self._check_batch(q, matrix)
        return self.batch_distance_prepared(q, self.prepare_matrix(m), rows)

    def prepare_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Row-normalized histograms (the per-call hot spot, done once)."""
        m = np.asarray(matrix, dtype=np.float64)
        return m / np.maximum(m.sum(axis=1), 1e-12)[:, np.newaxis]

    def batch_distance_prepared(
        self, q: FeatureVector, prepared: np.ndarray, rows: Rows = None
    ) -> np.ndarray:
        from repro.similarity.measures import l1_batch

        m = self._check_batch(q, prepared)
        return l1_batch(q.values / max(1e-12, q.values.sum()), m, rows)
