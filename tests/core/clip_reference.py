"""The frame and clip queries spelled out one step at a time.

The engine has one scoring path (``batch_distance_prepared`` on the
prepared stacks, ``_stable_topk``); :func:`reference_frame_ranking` (and
:func:`reference_vector_ranking`, for given vectors and candidate ids) is
what it must equal -- the scalar ``extractor.distance`` per stored
record, ``CombinedScorer.fuse``, a stable argsort.

``search_by_video`` scores every query key frame against the prepared
stacks through the blocked kernels and fills all DP tables in one batched
recurrence; this is the composition it must equal bit for bit -- an
explicitly gathered stack per feature, prepared on the spot, one
``dtw_distance`` table per stored video on the same fused matrix.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.search import SearchEngine
from repro.core.store import FeatureStore, FrameRecord
from repro.features.base import FeatureVector
from repro.similarity.dp import dtw_distance
from repro.similarity.fusion import CombinedScorer, FeatureWeights, normalize_scores


def reference_frame_ranking(
    engine: SearchEngine,
    image,
    top_k: int,
    features: Optional[Sequence[str]] = None,
    use_index: bool = True,
) -> List[Tuple[int, float, Dict[str, float]]]:
    """``[(frame_id, fused, per_feature)]``, best first, read off
    ``record.features`` one stored frame at a time."""
    names = list(features or engine.config.features)
    ids = sorted(engine.index.candidates(image)) if use_index else engine.store.frame_ids()
    vectors = {name: engine.extractors[name].extract(image) for name in names}
    return reference_vector_ranking(engine, vectors, ids, top_k)


def reference_vector_ranking(
    engine: SearchEngine,
    query_vectors: Dict[str, FeatureVector],
    candidate_ids: Sequence[int],
    top_k: int,
) -> List[Tuple[int, float, Dict[str, float]]]:
    """The same over ``candidate_ids`` in the order given, duplicates
    included, fusing the configured features of ``query_vectors``."""
    store, ids = engine.store, list(candidate_ids)
    names = [name for name in query_vectors if name in engine.extractors]
    per_feature = {}
    for name in names:
        extractor, query = engine.extractors[name], query_vectors[name]
        per_feature[name] = np.array(
            [extractor.distance(query, store.get(fid).features[name]) for fid in ids]
        )
    if len(names) == 1:
        fused = per_feature[names[0]]
    else:
        weights = FeatureWeights({n: engine.config.weight_of(n) for n in names})
        fused = CombinedScorer(weights).fuse(per_feature)
    order = np.argsort(fused, kind="stable")[:top_k]
    return [
        (ids[i], float(fused[i]), {n: float(per_feature[n][i]) for n in names})
        for i in order
    ]


def reference_clip_ranking(
    engine: SearchEngine, frames: Sequence, features: Optional[Sequence[str]] = None
) -> List[Tuple[int, float]]:
    """``[(video_id, distance)]`` over every stored video, best first,
    fusing ``features`` (None = all configured)."""
    config, store = engine.config, engine.store
    key_frames = [f for _i, f in engine.keyframe_extractor.extract(list(frames))]
    lengths = {vid: len(store.frames_of_video(vid)) for vid in store.video_ids()}
    records = [rec for vid in lengths for rec in store.frames_of_video(vid)]
    if not records:
        return []
    nq, nr = len(key_frames), len(records)
    combined = np.zeros((nq, nr))
    total_weight = 0.0
    for name in features or config.features:
        extractor = engine.extractors[name]
        stack = extractor.prepare_matrix(np.stack([rec.features[name].values for rec in records]))
        m = np.stack(
            [extractor.batch_distance_prepared(extractor.extract(f), stack) for f in key_frames]
        )
        weight = config.weight_of(name)
        combined += weight * normalize_scores(m.ravel()).reshape(nq, nr)
        total_weight += weight
    combined /= total_weight
    ranking = []
    column = 0
    for vid, n in lengths.items():
        block = combined[:, column:column + n]
        column += n
        ranking.append((vid, dtw_distance(range(nq), range(n), block)))
    ranking.sort(key=lambda pair: pair[1])
    return ranking


def relaid_store(
    records: Sequence[FrameRecord], lengths: Sequence[int], interleave: bool
) -> FeatureStore:
    """A store built by hand: ``lengths[v]`` of ``records`` become video ``v + 1``.

    With ``interleave`` the frame ids are dealt round-robin across the
    videos, so video-major record order is *not* id (= stack row) order
    and clip scoring has to gather rows.
    """
    slots = [(k, v) for v, n in enumerate(lengths) for k in range(n)]  # video-major
    if interleave:
        slots.sort()  # every video's k-th frame before any video's (k+1)-th
    store = FeatureStore()
    for frame_id, ((_k, v), record) in enumerate(zip(slots, records), start=1):
        store.add(
            replace(
                record, frame_id=frame_id, video_id=v + 1, video_name=f"video-{v + 1}"
            )
        )
    return store


def ranking_of(matches) -> List[Tuple[int, float]]:
    return [(m.video_id, m.distance) for m in matches]
