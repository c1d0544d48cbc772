"""Histogram-based range-finder indexing (paper §4.2).

Every key frame is assigned a gray-level ``(min, max)`` bucket by a
level-by-level binary descent over its histogram; buckets form a binary
tree over intensity ranges (Figure 7) and searches only need to scan
frames whose bucket lies on the query bucket's root path or subtree.
"""

from repro import _lazy_getattr
from repro.indexing.rangefinder import Bucket, RangeFinder, paper_range_finder
from repro.indexing.tree import IndexStats, RangeIndex

#: imported on first use: only an engine with ``config.ann`` builds an IVF index
_LAZY = {name: "repro.indexing.ann" for name in ("IVFIndex", "IVFStats", "kmeans")}

__all__ = [
    "Bucket",
    "RangeFinder",
    "paper_range_finder",
    "RangeIndex",
    "IndexStats",
    "IVFIndex",
    "IVFStats",
    "kmeans",
]

__getattr__ = _lazy_getattr(globals(), _LAZY)
