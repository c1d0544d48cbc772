"""The range-index tree (paper Figure 7).

A query frame's candidates are the frames whose bucket lies on the query
bucket's root path (ancestors) or in its subtree (descendants): those are
the only buckets a frame with a compatible intensity distribution can land
in, so everything else is pruned before any feature distance is computed.

The paper keeps each frame's bucket as the ``MIN`` / ``MAX`` columns of
``KEY_FRAMES`` and prunes by comparing them; so does this index.  It holds
a :class:`RangeFinder` and *views* a table of ``(id, bucket_min,
bucket_max)`` columns -- the feature store's, so frame -> bucket lives in
one place -- and a lookup is two vectorised comparisons on those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Set

import numpy as np

from repro.imaging.image import Image
from repro.indexing.rangefinder import Bucket, RangeFinder

__all__ = ["RangeIndex", "IndexStats", "BucketColumns"]


@dataclass(frozen=True)
class IndexStats:
    """Occupancy snapshot of a :class:`RangeIndex`."""

    n_entries: int
    n_buckets: int
    bucket_sizes: Dict[Bucket, int]
    largest_bucket: Optional[Bucket]

    @property
    def mean_bucket_size(self) -> float:
        return self.n_entries / self.n_buckets if self.n_buckets else 0.0


class BucketColumns(NamedTuple):
    """What a :class:`RangeIndex` reads: parallel per-frame columns."""

    ids: np.ndarray
    bucket_min: np.ndarray
    bucket_max: np.ndarray


class RangeIndex:
    """Pruned candidate lookup over ``(id, bucket_min, bucket_max)`` columns.

    ``source`` is anything with a ``columns`` attribute carrying those
    three fields -- the :class:`~repro.core.store.FeatureStore`, whose
    writes the index then sees without being told.
    """

    def __init__(self, finder: RangeFinder, source: object):
        self.finder = finder
        self.source = source

    def bound_to(self, source: object) -> "RangeIndex":
        """This index if it views ``source``, else one (same finder) that does."""
        return self if self.source is source else RangeIndex(self.finder, source)

    def _row(self, frame_id: Hashable) -> int:
        rows = np.flatnonzero(self.source.columns.ids == frame_id)
        if not rows.size:
            raise KeyError(frame_id)
        return int(rows[0])

    def __len__(self) -> int:
        return len(self.source.columns.ids)

    def __contains__(self, frame_id: Hashable) -> bool:
        return bool(np.any(self.source.columns.ids == frame_id))

    def bucket_of(self, frame_id: Hashable) -> Bucket:
        row = self._row(frame_id)
        columns = self.source.columns
        return Bucket(int(columns.bucket_min[row]), int(columns.bucket_max[row]))

    def candidate_rows(self, query: Bucket) -> np.ndarray:
        """Ascending row positions (in the viewed columns) of the frames
        whose bucket is on the query bucket's root path or in its subtree:
        :meth:`Bucket.on_same_path`, on whole columns."""
        columns = self.source.columns
        bmin, bmax = columns.bucket_min, columns.bucket_max
        return np.flatnonzero(
            ((bmin <= query.min) & (query.max <= bmax))
            | ((query.min <= bmin) & (bmax <= query.max))
        )

    def candidates(self, image: Image) -> Set[Hashable]:
        """Frame ids compatible with the query frame's bucket."""
        return self.candidates_for_bucket(self.finder.bucket_for_image(image))

    def candidates_for_bucket(self, query: Bucket) -> Set[Hashable]:
        """Ids in buckets on the query bucket's root path or subtree."""
        return set(self.source.columns.ids[self.candidate_rows(query)].tolist())

    def all_ids(self) -> Set[Hashable]:
        return set(self.source.columns.ids.tolist())

    def stats(self) -> IndexStats:
        columns = self.source.columns
        keys, counts = np.unique(
            columns.bucket_min * 256 + columns.bucket_max, return_counts=True
        )
        sizes = {
            Bucket(key // 256, key % 256): count
            for key, count in zip(keys.tolist(), counts.tolist())
        }
        largest = max(sizes, key=sizes.get) if sizes else None
        return IndexStats(
            n_entries=len(columns.ids),
            n_buckets=len(sizes),
            bucket_sizes=sizes,
            largest_bucket=largest,
        )

    def pruning_factor(self, queries: Iterable[Image]) -> float:
        """Mean fraction of the corpus *excluded* per query (0 = no pruning)."""
        total = len(self)
        if total == 0:
            return 0.0
        fractions: List[float] = []
        for image in queries:
            bucket = self.finder.bucket_for_image(image)
            fractions.append(1.0 - self.candidate_rows(bucket).size / total)
        return sum(fractions) / len(fractions) if fractions else 0.0
