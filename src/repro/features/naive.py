"""Superficial ("naive") similarity signature (paper §4.6).

"Extract image signature with 25 representative pixels, each in R, G, B.
For each of 25 locations over image take 5*5 matrix & find mean pixel value
for matrix."  The implementation rescales to 300x300 (nearest neighbour)
and averages a window of half-width ``sampleSize=15`` around each of the
5x5 grid points -- shared with the key-frame extractor, which uses the very
same signature as its frame distance (§4.1 compares "rescaled IVersions").
"""

from __future__ import annotations

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, Rows, register_extractor
from repro.imaging.image import Image
from repro.video.keyframes import BASE_SIZE, GRID, SAMPLE_SIZE, frame_signature

__all__ = ["NaiveSignature"]


@register_extractor
class NaiveSignature(FeatureExtractor):
    """§4.6 extractor: 25 mean-RGB points flattened to a 75-vector."""

    name = "naive"
    tag = "NaiveVector"

    def __init__(self, base_size: int = BASE_SIZE, grid: int = GRID, sample_size: int = SAMPLE_SIZE):
        if grid < 1:
            raise ValueError("grid must be >= 1")
        self.base_size = base_size
        self.grid = grid
        self.sample_size = sample_size

    def extract(self, image: Image) -> FeatureVector:
        sig = frame_signature(image, self.base_size, self.grid, self.sample_size)
        return FeatureVector(kind=self.name, values=sig.ravel(), tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Sum over grid points of the Euclidean distance between mean colors.

        This is the same scalar the key-frame extractor thresholds at 800.
        """
        self._check_pair(a, b)
        pa = a.values.reshape(-1, 3)
        pb = b.values.reshape(-1, 3)
        return float(np.sum(np.sqrt(np.sum((pa - pb) ** 2, axis=1))))

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Vectorized per-grid-point color distances, summed per candidate."""
        m = self._check_batch(q, matrix)
        if rows is not None:
            m = m[rows]
        pq = q.values.reshape(-1, 3)
        pm = m.reshape(m.shape[0], -1, 3)
        return np.sqrt(((pm - pq) ** 2).sum(axis=2)).sum(axis=1)
