"""The benchmark's own reference ranking.

Recomputed from the scalar ``FeatureExtractor.distance``, one
``CombinedScorer.fuse`` and a stable sort by (distance, frame id).  It
never enters ``SearchEngine``, the prepared / batched kernels, the query
cache or ``RangeIndex``, so it stays valid while those are rewritten
(ROADMAP item 3 retires the ``batch_distances`` / ``imaging.accel``
switches; the oracle depends on neither).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.store import FrameRecord
from repro.features.base import get_extractor
from repro.imaging.image import Image
from repro.indexing.rangefinder import RangeFinder
from repro.similarity.fusion import CombinedScorer, FeatureWeights

#: the engine's batched kernels sum in another order than the scalar ones
REL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OracleHit:
    frame_id: int
    distance: float
    category: Optional[str]


class Oracle:
    """Exact rankings over a fixed list of records."""

    def __init__(self, records: Sequence[FrameRecord], config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.records = sorted(records, key=lambda r: r.frame_id)
        self.extractors = {n: get_extractor(n) for n in self.config.features}
        self.finder = RangeFinder(
            first_threshold=self.config.index_first_threshold,
            threshold=self.config.index_threshold,
            max_level=self.config.index_max_level,
        )

    def rank(self, image: Image, top_k: int, use_index: bool = True) -> List[OracleHit]:
        """The answer ``system.search(image, top_k=top_k)`` must give."""
        candidates = self.records
        if use_index:
            # §4.2: only frames whose bucket is on the query bucket's root
            # path or in its subtree can match
            bucket = self.finder.bucket_for_image(image)
            candidates = [r for r in candidates if r.bucket.on_same_path(bucket)]
        if not candidates:
            return []
        per_feature: Dict[str, np.ndarray] = {}
        for name, extractor in self.extractors.items():
            query = extractor.extract(image)
            per_feature[name] = np.array(
                [extractor.distance(query, r.features[name]) for r in candidates]
            )
        fused = CombinedScorer(FeatureWeights(self.config.weights_dict())).fuse(per_feature)
        order = sorted(
            range(len(candidates)), key=lambda i: (fused[i], candidates[i].frame_id)
        )[:top_k]
        return [
            OracleHit(candidates[i].frame_id, float(fused[i]), candidates[i].category)
            for i in order
        ]


def mismatch(
    got_ids: Sequence[int],
    got_distances: Sequence[float],
    want: Sequence[OracleHit],
    abs_tolerance: float = 0.0,
) -> Optional[str]:
    """None when the ranking equals the oracle's, else what differs.

    Ids must agree in order; distances within :data:`REL_TOLERANCE`
    relative (plus ``abs_tolerance`` for answers that were rounded on the
    way, as the HTTP payload's are).
    """
    want_ids = [h.frame_id for h in want]
    if list(got_ids) != want_ids:
        return f"ids {list(got_ids)[:5]}... != oracle {want_ids[:5]}..."
    for rank, (got, hit) in enumerate(zip(got_distances, want)):
        if abs(got - hit.distance) > abs_tolerance + REL_TOLERANCE * abs(hit.distance):
            return f"rank {rank}: distance {got!r} != oracle {hit.distance!r}"
    return None
