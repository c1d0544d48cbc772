"""Frame analysis on two lanes: every extractor over a list of key frames.

Ingest (every key frame of a new video) and the queries (the query frame,
or every key frame of the query clip) run the same work: all configured
extractors over frames of one shape.  :func:`analyse_frames` is that work.

The extractors marked :attr:`FeatureExtractor.releases_gil` (the Gabor
bank: pocketfft and bank-sized ufuncs) run over all frames on the pool's
helper thread while the calling thread runs the others and the caller's
own per-frame work (``per_frame``: the index bucket and the PPM blob on
ingest).  Extractors that hold the GIL get slower on two threads, so the
split is one lane for what releases it and one for the rest.  Without a
helper lane (a one-CPU affinity mask) this thread runs them all.  Either
way the result is what one thread computes, in frame order.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.features.base import FeatureExtractor, FeatureVector
from repro.imaging.image import Image
from repro.resilience import DeadlineExceeded
from repro.runtime import WorkerPool

__all__ = ["FrameAnalysis", "analyse_frames"]


@dataclass
class FrameAnalysis:
    """One entry per analysed frame, in frame order."""

    #: feature vectors, in the order of the extractors passed in
    features: List[Dict[str, FeatureVector]]
    #: wall seconds per extractor, timed on the lane that ran it
    seconds: List[Dict[str, float]]
    #: ``per_frame(frame)``, or None without a ``per_frame``
    extras: List[object]
    #: each feature ``degrade`` dropped, with its error
    failed: Dict[str, Exception]


def analyse_frames(
    frames: Sequence[Image],
    extractors: Dict[str, FeatureExtractor],
    pool: WorkerPool,
    per_frame: Optional[Callable[[Image], object]] = None,
    degrade: bool = False,
) -> FrameAnalysis:
    """Every extractor (and ``per_frame``) over every frame, on two lanes.

    An exception from either lane propagates unchanged (a write's rule),
    and only once the helper lane has finished.  With ``degrade`` (a
    query's rule) an extractor that raises is dropped from every frame
    instead, its error kept in ``failed``; :class:`DeadlineExceeded`
    still propagates.
    """
    frames = list(frames)
    lane = pool.lane()
    side: Dict[str, FeatureExtractor] = {}
    if lane is not None:
        side = {n: e for n, e in extractors.items() if e.releases_gil}
    own = {n: e for n, e in extractors.items() if n not in side}
    future = None
    if side:
        for frame in frames:
            frame.gray()  # both lanes read the memo; only this one writes it
        future = lane.submit(_extract, frames, side, degrade)
    try:
        features, seconds, failed = _extract(frames, own, degrade)
        extras = [per_frame(f) if per_frame else None for f in frames]
    except BaseException:
        if future is not None:
            wait([future])  # the helper lane finishes before the error unwinds
        raise
    if future is not None:
        side_features, side_seconds, side_failed = future.result()
        features = [{**a, **b} for a, b in zip(features, side_features)]
        seconds = [{**a, **b} for a, b in zip(seconds, side_seconds)]
        failed.update(side_failed)
    # extractor order, without the features some frame lost
    kept = [n for n in extractors if n not in failed]
    features = [{n: f[n] for n in kept} for f in features]
    return FrameAnalysis(features, seconds, extras, failed)


def _extract(frames: List[Image], extractors: Dict[str, FeatureExtractor], degrade: bool):
    """``(features, seconds, failed)`` for one lane's extractors."""
    features: List[Dict[str, FeatureVector]] = []
    seconds: List[Dict[str, float]] = []
    failed: Dict[str, Exception] = {}
    for frame in frames:
        vectors: Dict[str, FeatureVector] = {}
        times: Dict[str, float] = {}
        for name, extractor in extractors.items():
            if name in failed:
                continue
            t0 = time.perf_counter()
            try:
                vectors[name] = extractor.extract(frame)
            except Exception as exc:
                if not degrade or isinstance(exc, DeadlineExceeded):
                    raise
                failed[name] = exc
                continue
            times[name] = time.perf_counter() - t0
        features.append(vectors)
        seconds.append(times)
    return features, seconds, failed
