"""Edge histogram descriptor (extension feature).

The paper's §1 lists *shape* among the common visual features and its
conclusion plans "integrating more features".  This extension adds the
classic MPEG-7-style edge histogram: the frame is split into a 4x4 grid of
subimages, each subimage votes into five edge-type bins (vertical,
horizontal, 45-degree, 135-degree, non-directional) based on small 2x2
edge filters, giving an 80-dimensional descriptor of local shape/structure.

Registered under the name ``ehd``; include it in retrieval with::

    SystemConfig(features=TABLE1_FEATURES + ("ehd",))
"""

from __future__ import annotations

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, Rows, register_extractor
from repro.imaging.image import Image

__all__ = ["EdgeHistogram", "edge_type_map"]

#: MPEG-7's five 2x2 edge filters (vertical, horizontal, 45, 135, non-dir).
_FILTERS = np.stack(
    [
        np.array([[1.0, -1.0], [1.0, -1.0]]),  # vertical edge
        np.array([[1.0, 1.0], [-1.0, -1.0]]),  # horizontal edge
        np.array([[np.sqrt(2), 0.0], [0.0, -np.sqrt(2)]]),  # 45 degrees
        np.array([[0.0, np.sqrt(2)], [-np.sqrt(2), 0.0]]),  # 135 degrees
        np.array([[2.0, -2.0], [-2.0, 2.0]]),  # non-directional
    ]
)

N_EDGE_TYPES = 5


def edge_type_map(gray: np.ndarray, threshold: float = 11.0) -> np.ndarray:
    """Classify each 2x2 block: 0..4 = edge type, -1 = no edge.

    Blocks whose strongest filter response is below ``threshold`` count as
    edgeless (MPEG-7's T_edge).  Returns an int array over the block grid
    ``(h // 2, w // 2)``.
    """
    a = np.asarray(gray, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("edge_type_map expects a 2-D gray array")
    h2, w2 = a.shape[0] // 2, a.shape[1] // 2
    if h2 == 0 or w2 == 0:
        raise ValueError("image too small for 2x2 edge blocks")
    blocks = a[: h2 * 2, : w2 * 2].reshape(h2, 2, w2, 2).transpose(0, 2, 1, 3)
    responses = np.abs(np.einsum("hwij,fij->fhw", blocks, _FILTERS))
    best = responses.argmax(axis=0)
    strength = responses.max(axis=0)
    best[strength < threshold] = -1
    return best


@register_extractor
class EdgeHistogram(FeatureExtractor):
    """80-dim local edge histogram: 4x4 subimages x 5 edge types.

    Each subimage's histogram is normalized by its block count, so the
    descriptor is resolution-independent.
    """

    name = "ehd"
    tag = "EHD"

    def __init__(self, grid: int = 4, threshold: float = 11.0):
        if grid < 1:
            raise ValueError("grid must be >= 1")
        self.grid = grid
        self.threshold = threshold

    @property
    def n_dims(self) -> int:
        return self.grid * self.grid * N_EDGE_TYPES

    def extract(self, image: Image) -> FeatureVector:
        gray = image.gray()
        types = edge_type_map(gray, self.threshold)
        bh, bw = types.shape
        values = np.zeros(self.n_dims)
        for gy in range(self.grid):
            y0, y1 = bh * gy // self.grid, bh * (gy + 1) // self.grid
            for gx in range(self.grid):
                x0, x1 = bw * gx // self.grid, bw * (gx + 1) // self.grid
                cell = types[y0:y1, x0:x1]
                n_blocks = max(1, cell.size)
                base = (gy * self.grid + gx) * N_EDGE_TYPES
                for e in range(N_EDGE_TYPES):
                    values[base + e] = np.count_nonzero(cell == e) / n_blocks
        return FeatureVector(kind=self.name, values=values, tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """L1 distance (the MPEG-7 matching rule for EHD)."""
        self._check_pair(a, b)
        return float(np.abs(a.values - b.values).sum())

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Vectorized L1 distances against a stacked matrix."""
        from repro.similarity.measures import l1_batch

        return l1_batch(q.values, self._check_batch(q, matrix), rows)
