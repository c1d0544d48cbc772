"""Simple region growing (paper §4.8).

The pipeline reproduces the paper's preprocessor and labelling loop:

1. convert to gray with the ``{0.114, 0.587, 0.299}`` band-combine matrix;
2. binarize at the histogram's minimum-fuzziness threshold (JAI's
   ``getMinFuzzinessThreshold``);
3. morphologically clean with the 5x5 kernel: dilate, erode, erode, dilate
   (a close followed by an open);
4. label connected components of the binary image with a classic
   stack-based region grow (8-connectivity: the pseudo-code scans the full
   ``-1..1`` neighbour box).  Components of 0-valued (background) pixels
   whose seed is a 0 pixel increment the hole counter, exactly as the
   listing's ``if (pixels[w][h]==0) numhole++``.

The feature is ``[numberOfRegions, numHoles, majorRegions]`` where a major
region covers at least ``major_fraction`` of the frame (the paper stores
``MAJORREGIONS`` as a NUMBER column; its sample query frame yields 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, Rows, register_extractor
from repro.imaging import accel
from repro.imaging.image import Image
from repro.imaging.morphology import PAPER_KERNEL, binary_dilate, binary_erode
from repro.imaging.threshold import binarize

__all__ = ["SimpleRegionGrowing", "RegionGrowingResult", "label_regions", "preprocess_binary"]

_NEIGHBORS_8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
_NEIGHBORS_4 = [(-1, 0), (0, -1), (0, 1), (1, 0)]


@dataclass(frozen=True)
class RegionGrowingResult:
    """Labelling outcome: label map plus the §4.8 counters."""

    labels: np.ndarray
    n_regions: int
    n_holes: int
    region_sizes: Dict[int, int]

    def major_regions(self, min_pixels: int) -> int:
        """Number of regions with at least ``min_pixels`` pixels."""
        return sum(1 for size in self.region_sizes.values() if size >= min_pixels)


def label_regions(binary: np.ndarray, connectivity: int = 8) -> RegionGrowingResult:
    """Region labelling over a binary image (both pixel values).

    Components are maximal same-value regions.  Every component gets a label
    starting at 1, assigned in raster-scan order of the component's first
    pixel (exactly what the paper's seed-scan region grow produces);
    components seeded on a 0 (background) pixel also count as holes,
    following the paper's listing.  The fast path labels row runs with a
    union-find; the reference path is the paper's stack-based grow.  Both
    yield identical results.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    pixels = np.asarray(binary)
    if pixels.ndim != 2:
        raise ValueError("label_regions expects a 2-D array")
    pixels = pixels.astype(np.uint8)
    if accel.fast_paths_enabled():
        return _label_regions_runs(pixels, connectivity)
    return _label_regions_reference(pixels, connectivity)


def _label_regions_runs(pixels: np.ndarray, connectivity: int) -> RegionGrowingResult:
    """Run-based connected components: the reference path's result without
    visiting pixels one by one.

    A run is a maximal stretch of one value inside one row.  Runs are
    numbered in raster order, each is joined to the same-valued runs it
    touches in the row above, and a union-find keeps the smaller run number
    as root -- so a component's root is the run holding its first pixel in
    raster order, and the rank of the root among roots is the label the
    paper's seed scan would have given it.
    """
    h, w = pixels.shape
    n = pixels.size
    if n == 0:
        return RegionGrowingResult(
            labels=np.full((h, w), -1, dtype=np.int32), n_regions=0, n_holes=0, region_sizes={}
        )
    flat = pixels.ravel()
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.not_equal(flat[1:], flat[:-1], out=breaks[1:])
    breaks[::w] = True
    starts = np.flatnonzero(breaks)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    values = flat[starts]

    # the runs above that a run touches: its flat span moved up one row,
    # widened by a column each side for 8-connectivity, clipped to that row.
    # starts and ends are both ascending, so two binary searches bracket them
    reach = 1 if connectivity == 8 else 0
    row_start = starts - starts % w
    lo = np.maximum(starts - reach, row_start) - w
    hi = np.minimum(ends + reach, row_start + w) - w
    first = np.searchsorted(ends, lo, side="right")
    counts = np.searchsorted(starts, hi, side="left") - first
    counts[row_start == 0] = 0
    run_ids = np.arange(starts.size)
    below = np.repeat(run_ids, counts)
    above = np.arange(below.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    same = values[below] == values[above]

    parent = list(range(starts.size))
    for a, b in zip(above[same].tolist(), below[same].tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # parent[i] <= i throughout, so one ascending pass resolves every run
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    roots = np.array(parent)
    is_root = roots == run_ids
    run_labels = np.cumsum(is_root, dtype=np.int32)[roots]
    lengths = ends - starts
    sizes = np.bincount(run_labels, weights=lengths).astype(np.int64)
    return RegionGrowingResult(
        labels=np.repeat(run_labels, lengths).reshape(h, w),
        n_regions=int(np.count_nonzero(is_root)),
        n_holes=int(np.count_nonzero(values[is_root] == 0)),
        region_sizes=dict(enumerate(sizes[1:].tolist(), 1)),
    )


def _label_regions_reference(pixels: np.ndarray, connectivity: int) -> RegionGrowingResult:
    """The paper's stack-based region grow (the reference path and oracle)."""
    neighbors = _NEIGHBORS_8 if connectivity == 8 else _NEIGHBORS_4
    h, w = pixels.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    n_regions = 0
    n_holes = 0
    sizes: Dict[int, int] = {}

    for y in range(h):
        for x in range(w):
            if labels[y, x] >= 0:
                continue
            n_regions += 1
            if pixels[y, x] == 0:
                n_holes += 1
            label = n_regions
            value = pixels[y, x]
            labels[y, x] = label
            count = 1
            stack = deque([(y, x)])
            while stack:
                cy, cx = stack.popleft()
                for dy, dx in neighbors:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] < 0 and pixels[ny, nx] == value:
                        labels[ny, nx] = label
                        count += 1
                        stack.append((ny, nx))
            sizes[label] = count
    return RegionGrowingResult(labels=labels, n_regions=n_regions, n_holes=n_holes, region_sizes=sizes)


def preprocess_binary(image: Image, threshold: float = None) -> np.ndarray:
    """§4.8 preprocessor: gray -> fuzzy-threshold binarize -> close -> open."""
    gray = image.gray()
    binary = binarize(gray, threshold)
    binary = binary_dilate(binary, PAPER_KERNEL)
    binary = binary_erode(binary, PAPER_KERNEL)
    binary = binary_erode(binary, PAPER_KERNEL)
    binary = binary_dilate(binary, PAPER_KERNEL)
    return binary


@register_extractor
class SimpleRegionGrowing(FeatureExtractor):
    """§4.8 extractor: ``[n_regions, n_holes, major_regions]``."""

    name = "regions"
    tag = "Regions"

    def __init__(self, major_fraction: float = 0.05, connectivity: int = 8):
        if not 0 < major_fraction <= 1:
            raise ValueError("major_fraction must be in (0, 1]")
        self.major_fraction = major_fraction
        self.connectivity = connectivity

    def analyze(self, image: Image) -> RegionGrowingResult:
        """Run the full pipeline and return the labelling result."""
        binary = preprocess_binary(image)
        return label_regions(binary, self.connectivity)

    def extract(self, image: Image) -> FeatureVector:
        result = self.analyze(image)
        min_pixels = int(self.major_fraction * image.width * image.height)
        values = np.array(
            [result.n_regions, result.n_holes, result.major_regions(min_pixels)],
            dtype=np.float64,
        )
        return FeatureVector(kind=self.name, values=values, tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Canberra distance over the three counters."""
        self._check_pair(a, b)
        denom = np.abs(a.values) + np.abs(b.values)
        mask = denom > 1e-12
        return float(np.sum(np.abs(a.values - b.values)[mask] / denom[mask]))

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Vectorized Canberra distances over the three counters."""
        from repro.similarity.measures import canberra_batch

        return canberra_batch(q.values, self._check_batch(q, matrix), rows)
