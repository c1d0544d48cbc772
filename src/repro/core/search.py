"""The user-side search engine (the right half of the Fig. 3 DFD).

Frame, vector and clip queries run through ONE pipeline, in three stages:

* **prepare** -- per request: query-cache lookup, range-index pruning,
  query-feature extraction (``core.lanes``, degrading per feature), the
  optional IVF probe, and a :class:`_QueryPlan` naming the candidate
  rows.  A clip is key-framed, and one exact plan per query key frame
  resolved over the store's video-major rows;
* **score** -- one pass over every prepared plan, feature by feature:
  raw distances from ``batch_distance_prepared`` on the store's
  generation-cached prepared stacks, a large pass split by rows between
  the calling thread and the pool's helper lane (one scatter per shard
  on the sharded engine);
* **finish** -- per request: min-max normalization + weighted fusion
  (§5's "combined" approach, or one feature alone for the individual
  Table 1 columns), stable top-k, cache put.  A clip stacks its plans'
  arrays into the query-by-stored cost matrices, normalizes them over
  the whole scored population and aligns the sequence against every
  stored video's with the paper's dynamic-programming similarity.

:meth:`SearchEngine.query_batch` runs the stages over a list of
:class:`QueryRequest` objects; :meth:`SearchEngine.query_frame`,
:meth:`SearchEngine.query_with_vectors` and
:meth:`SearchEngine.query_video` are batches of one.  The scalar
``FeatureExtractor.distance`` the kernels must equal lives on as the
reference in ``tests/core/clip_reference.py``.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import wait
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import QueryCache, digest_array, digest_vectors
from repro.core.config import SystemConfig
from repro.core.lanes import analyse_frames
from repro.core.results import RetrievalResult, SearchResults
from repro.core.store import FeatureStore
from repro.features.base import FeatureExtractor, FeatureVector, get_extractor
from repro.imaging.image import Image
from repro.indexing import ann_metrics
from repro.indexing.tree import RangeIndex
from repro.obs import NULL_OBS, NULL_SPAN, Obs, log
from repro.resilience import (
    NULL_POLICIES,
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    ResiliencePolicies,
    armed_deadline,
)
from repro.runtime import WorkerPool
from repro.similarity.dp import span_distances
from repro.similarity.fusion import CombinedScorer, FeatureWeights, normalize_scores
from repro.video.keyframes import KeyFrameExtractor

if TYPE_CHECKING:  # pragma: no cover
    from repro.indexing.ann import IVFIndex
    from repro.video.generator import SyntheticVideo

__all__ = ["QueryRequest", "SearchEngine", "VideoMatch"]

#: histogram edges for candidate-set sizes (counts, not seconds)
_COUNT_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0,
    16384.0, 65536.0,
)

#: histogram edges for the range-index pruning ratio (fraction in [0, 1])
_RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)

#: candidate rows x features below which a scoring pass stays on the
#: calling thread: a smaller pass gains less from the helper lane than its
#: submit and join cost.  A constant, not a knob (the sweep that set it is
#: in docs/performance.md); the result does not depend on it.
_SPLIT_MIN_WORK = 8192


def _stable_topk(fused: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, in stable-argsort order.

    Exactly equivalent to ``np.argsort(fused, kind="stable")[:k]`` (ties
    broken by original position, including at the selection boundary) but
    O(n + k log k) instead of O(n log n): an ``argpartition`` narrows to k
    candidates, a boundary-tie repair keeps the lowest-index tied entries,
    and a lexsort orders the survivors.
    """
    n = fused.size
    k = max(0, min(k, n))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    if k >= n:
        return np.lexsort((np.arange(n), fused))
    sel = np.argpartition(fused, k - 1)[:k]
    boundary = fused[sel].max()
    tied_selected = int(np.count_nonzero(fused[sel] == boundary))
    tied_total = int(np.count_nonzero(fused == boundary))
    if tied_total > tied_selected:
        # argpartition picked an arbitrary subset of the boundary ties;
        # stable order wants the lowest original indices
        strictly = np.nonzero(fused < boundary)[0]
        tied = np.nonzero(fused == boundary)[0][: k - strictly.size]
        sel = np.concatenate([strictly, tied])
    return sel[np.lexsort((sel, fused[sel]))]


def _score_rows(
    extractors: Dict[str, FeatureExtractor],
    plans: Sequence["_QueryPlan"],
    prepared: Dict[str, object],
    bounds: Sequence[Tuple[int, int]],
) -> Tuple[List[object], List[Dict[str, float]]]:
    """One lane's feature-major pass over candidates ``lo:hi`` of each plan.

    Returns each plan's distances (or the exception that failed it) and
    its kernel seconds per feature.  ``prepared`` holds each wanted
    feature's prepared stack, or the exception its lookup raised; this
    function only reads it, so it may run on the helper lane.
    """
    out: List[object] = [dict.fromkeys(plan.names) for plan in plans]
    seconds: List[Dict[str, float]] = [{} for _plan in plans]
    for name, extractor in extractors.items():
        stack = prepared.get(name)
        for i, plan in enumerate(plans):
            if name not in plan.names or isinstance(out[i], Exception):
                continue
            if isinstance(stack, Exception):
                out[i] = stack
                continue
            lo, hi = bounds[i]
            if plan.rows is None:  # the whole store: a contiguous view
                matrix, rows = stack[lo:hi], None
            else:
                matrix, rows = stack, plan.rows[lo:hi]
            t_dist = time.perf_counter()
            try:
                out[i][name] = extractor.batch_distance_prepared(
                    plan.query_vectors[name], matrix, rows
                )
            except Exception as exc:  # noqa: BLE001 - isolation by contract
                out[i] = exc
            seconds[i][name] = time.perf_counter() - t_dist
    return out, seconds


def _joined(low: object, high: object) -> object:
    """One plan's distances from its two halves; a failed half fails it."""
    if isinstance(low, Exception):
        return low
    if isinstance(high, Exception):
        return high
    return {name: np.concatenate((low[name], high[name])) for name in low}


#: which field carries each request kind's query, and the option fields
#: that kind takes (``top_k`` / ``deadline`` belong to every kind)
_QUERY_FIELDS = {"image": "frame", "query_vectors": "vectors", "clip": "video"}
_KIND_OPTIONS = {
    "frame": ("features", "use_index"),
    "vectors": ("candidate_ids",),
    "video": ("features",),
}
_OPTION_FIELDS = sorted({name for names in _KIND_OPTIONS.values() for name in names})


@dataclass
class QueryRequest:
    """One frame, vector or clip query, the unit the pipeline works on.

    Exactly one of ``image`` (a frame query, which also takes
    ``features`` / ``use_index``), ``query_vectors`` (a
    precomputed-vector query, which also takes ``candidate_ids``) or
    ``clip`` (a video query: the clip's frames, which also takes
    ``features``; it is always exact and answers with a list of
    :class:`VideoMatch`) must be set; a field of another kind is
    rejected, not ignored.
    ``deadline`` is an *already ticking* budget -- the serving layer
    creates it at admission time so queue wait counts -- armed around the
    request's per-request stages.
    """

    image: Optional[Image] = None
    query_vectors: Optional[Dict[str, FeatureVector]] = None
    clip: Optional[Sequence[Image]] = None
    features: Optional[Sequence[str]] = None
    top_k: int = 20
    use_index: Optional[bool] = None
    candidate_ids: Optional[Sequence[int]] = None
    deadline: Optional[Deadline] = None

    def __post_init__(self) -> None:
        if sum(getattr(self, name) is not None for name in _QUERY_FIELDS) != 1:
            raise ValueError(
                "exactly one of image / query_vectors / clip is required"
            )
        if self.clip is not None and not len(self.clip):
            raise ValueError("query video has no frames")
        kind = self.kind
        for name in _OPTION_FIELDS:
            if name not in _KIND_OPTIONS[kind] and getattr(self, name) is not None:
                raise ValueError(f"a {kind} request takes no {name!r}")

    @property
    def kind(self) -> str:
        return next(
            kind for name, kind in _QUERY_FIELDS.items()
            if getattr(self, name) is not None
        )


@dataclass
class _QueryPlan:
    """One query vector set's resolved scoring work, between prepare and
    finish: a frame or vector request has one, a clip one per query key
    frame.

    :meth:`SearchEngine._plan_vectors` resolves the candidate set into a
    plan, :meth:`SearchEngine._score_plans` turns plans into raw
    per-feature distances (one scatter per shard for the sharded
    engine), :meth:`SearchEngine._rank_plan` fuses and ranks.  The
    sharded coordinator reuses the same carrier with its own fields
    (``positions`` .. ``merge_t0``).
    """

    query_vectors: Dict[str, FeatureVector]
    names: List[str]
    top_k: int
    #: candidate frame ids (an int64 array), in ranking-tie order
    candidate_ids: Sequence[int]
    n_total: int
    explain: Dict[str, object]
    #: early result for an empty candidate set (skips score/rank)
    empty: Optional[SearchResults] = None
    #: the candidates' rows in the id-ordered stacks (None = every row)
    rows: Optional[np.ndarray] = None
    #: per-feature kernel seconds, summed over both lanes (None when a
    #: shard worker did the timing)
    distance_s: Optional[Dict[str, float]] = None
    #: threads the scoring pass ran this plan's kernels on
    score_lanes: int = 1
    # sharded scoring state (ShardedSearchEngine only)
    positions: Optional[Dict[int, np.ndarray]] = None
    payloads: Optional[List[Tuple[int, tuple]]] = None
    degraded_shards: List[int] = field(default_factory=list)
    shard_meta: Optional[Dict[int, Dict[str, object]]] = None
    merge_t0: float = 0.0


@dataclass
class _BatchEntry:
    """One request's in-flight state between the pipeline's stages."""

    index: int = -1
    #: resolved before scoring (cache hit / empty candidate set / empty
    #: library); a clip's is a list of :class:`VideoMatch`
    results: Optional[object] = None
    plans: List[_QueryPlan] = field(default_factory=list)
    #: a clip request (answered with a list of :class:`VideoMatch`)
    clip: bool = False
    #: "bypass"/"off" when the query cache is not consulted
    cache_mode: Optional[str] = None
    #: the request's one cache key: pixels for a frame request, vectors
    #: for a vector request (unused when ``cache_mode`` is set)
    key: Optional[tuple] = None
    generation: int = 0
    #: frame-level annotations (None for vector queries)
    frame: Optional[Dict[str, object]] = None


class VideoMatch:
    """One hit of a video-to-video query."""

    def __init__(self, video_id: int, video_name: str, category: Optional[str], distance: float):
        self.video_id = video_id
        self.video_name = video_name
        self.category = category
        self.distance = distance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VideoMatch({self.video_name}, d={self.distance:.4f})"


class SearchEngine:
    """Query execution over a feature store + range index."""

    def __init__(
        self,
        config: SystemConfig,
        store: FeatureStore,
        index: RangeIndex,
        pool: Optional[WorkerPool] = None,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        self.config = config
        self.store = store
        #: pruning reads the store's own bucket columns; ``index`` supplies
        #: the range finder
        self.index = index.bound_to(store)
        self._policies = policies
        self.extractors: Dict[str, FeatureExtractor] = {
            name: get_extractor(name) for name in config.features
        }
        self.keyframe_extractor = KeyFrameExtractor(
            threshold=config.keyframe_threshold,
            base_size=config.keyframe_base_size,
        )
        self._pool = pool or WorkerPool()
        #: IVF candidate index (None when ``config.ann`` is off); trained
        #: lazily on the first probe and self-synced against the store
        if config.ann:
            from repro.indexing.ann import IVFIndex

            self.ann: Optional[IVFIndex] = IVFIndex(
                store, config.features, n_cells=config.ann_cells, obs=obs
            )
        else:
            self.ann = None
            ann_metrics.register_metrics(obs)  # families scrape at zero
        self._query_cache = QueryCache(config.query_cache_size, obs=obs)
        self._obs = obs
        self._log = log.get_logger(__name__)
        self._m_queries = obs.counter(
            "repro_search_queries_total",
            "Queries executed, by entry point.",
            labelnames=("kind",),
        )
        self._m_query_seconds = obs.histogram(
            "repro_search_seconds",
            "End-to-end query wall time (cache hits included).",
            labelnames=("kind",),
        )
        self._m_candidates = obs.histogram(
            "repro_search_candidates",
            "Candidates re-ranked per frame/vector query.",
            buckets=_COUNT_BUCKETS,
        )
        self._m_pruning = obs.histogram(
            "repro_search_pruning_ratio",
            "Fraction of the store pruned by the range index before ranking.",
            buckets=_RATIO_BUCKETS,
        )
        self._m_distance_seconds = obs.histogram(
            "repro_search_distance_seconds",
            "Per-feature distance computation time per ranked query.",
            labelnames=("feature",),
        )
        self._m_fusion_seconds = obs.histogram(
            "repro_search_fusion_seconds",
            "Weighted multi-feature fusion time per ranked query.",
        )
    def _prepared_matrix(self, name: str) -> np.ndarray:
        """The feature's prepared full stack: the store owns the one copy
        (:meth:`FeatureStore.prepared_matrix`), engines sharing a store
        share it."""
        return self.store.prepared_matrix(name, self.extractors[name])

    def close(self) -> None:
        """Tear down the worker pool and its helper thread."""
        self._pool.close()

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters of the query-result cache."""
        return self._query_cache.stats()

    def ann_stats(self) -> Optional[Dict[str, int]]:
        """Build/probe counters of the IVF index (None when disabled)."""
        return self.ann.stats.as_dict() if self.ann is not None else None

    def _copy_results(self, results: SearchResults, cache: str) -> SearchResults:
        """Fresh wrapper + per-hit dict copies, so callers can't mutate a
        cached entry through the returned object."""
        hits = [replace(h, per_feature=dict(h.per_feature)) for h in results.hits]
        explain = copy.deepcopy(results.explain)
        if explain is not None:
            explain["cache"] = cache
        return SearchResults(
            hits,
            n_candidates=results.n_candidates,
            n_total=results.n_total,
            degraded=results.degraded,
            degraded_features=list(results.degraded_features),
            degraded_shards=list(results.degraded_shards),
            explain=explain,
        )

    def _record_query(
        self,
        kind: str,
        t0: float,
        candidates: Optional[int] = None,
        results: Optional[SearchResults] = None,
        span: Optional[object] = None,
    ) -> None:
        """Per-query bookkeeping shared by the three public entry points."""
        elapsed = time.perf_counter() - t0
        ms = elapsed * 1000.0
        explain = results.explain if results is not None else None
        if explain is not None:
            explain["total_ms"] = round(ms, 3)
        self._m_queries.labels(kind=kind).inc()
        self._m_query_seconds.labels(kind=kind).observe(elapsed)
        if candidates is not None:
            self._m_candidates.observe(candidates)
        # one float compare on the fast path: the disabled slow log
        # advertises an infinite threshold
        if ms >= self._obs.slow_log.threshold_ms:
            self._obs.slow_log.record(
                ms,
                kind=kind,
                trace_id=getattr(span, "trace_id", None),
                candidates=candidates,
                degraded=results.degraded if results is not None else None,
                explain=copy.deepcopy(explain),
            )
        self._log.debug(
            "search.query",
            kind=kind,
            ms=round(ms, 2),
            candidates=candidates,
        )

    # -- frame / vector / clip queries: one prepare -> score -> finish pipeline --

    def query_frame(
        self,
        image: Image,
        features: Optional[Sequence[str]] = None,
        top_k: int = 20,
        use_index: Optional[bool] = None,
    ) -> SearchResults:
        """Rank stored key frames against a query frame.

        ``features`` selects the ranking signal: a single name ranks by that
        feature alone; several (or None = all configured) are fused with the
        configured weights.
        """
        return self._query_one(
            "search.query_frame",
            QueryRequest(
                image=image, features=features, top_k=top_k, use_index=use_index
            ),
        )

    def query_with_vectors(
        self,
        query_vectors: Dict[str, FeatureVector],
        top_k: int = 20,
        candidate_ids: Optional[Sequence[int]] = None,
    ) -> SearchResults:
        """Rank stored frames against precomputed query feature vectors,
        fused with the configured weights.  ``candidate_ids`` defaults to
        the whole store (no index pruning -- a vector has no image to
        bucket).
        """
        return self._query_one(
            "search.query_vectors",
            QueryRequest(
                query_vectors=query_vectors,
                top_k=top_k,
                candidate_ids=candidate_ids,
            ),
        )

    def query_video(
        self,
        video: Union[SyntheticVideo, Sequence[Image]],
        features: Optional[Sequence[str]] = None,
        top_k: int = 10,
    ) -> List[VideoMatch]:
        """Rank stored videos against a query clip via DP sequence alignment."""
        # a SyntheticVideo is told by its ``frames``, not by its class: the
        # class lives with the generator, which a query never needs
        frames = list(getattr(video, "frames", video))
        return self._query_one(
            "search.query_video",
            QueryRequest(clip=frames, features=features, top_k=top_k),
            frames=len(frames),
        )

    def _query_one(self, span_name: str, request: QueryRequest, **attrs: object):
        """A batch of one under the entry point's own root span; an
        outcome that is an exception is raised."""
        with self._obs.span(span_name, top_k=request.top_k, **attrs) as span:
            (outcome,) = self._run_requests([request], span)
            if isinstance(outcome, Exception):
                raise outcome
            if isinstance(outcome, SearchResults):
                span.annotate(
                    features=",".join(outcome.explain["features"]),
                    candidates=outcome.n_candidates,
                )
        return outcome

    def query_batch(self, requests: Sequence[QueryRequest]) -> List[object]:
        """Execute several frame/vector/clip queries as one micro-batch.

        Returns a list aligned with ``requests`` whose elements are
        either the request's answer (:class:`SearchResults`; a list of
        :class:`VideoMatch` for a clip) or the exception that request
        raised: exceptions are isolated per request, so a poisoned query
        never fails its batchmates.  Rankings are byte-identical to
        running each request on its own -- the batch amortizes
        per-request overhead (and the sharded engine's per-shard IPC,
        one scatter per shard per batch) but every per-query distance
        kernel runs with identical inputs, never a stacked multi-query
        kernel whose float reduction order could drift.
        """
        with self._obs.span("search.query_batch", size=len(requests)) as span:
            return self._run_requests(requests, span)

    def _run_requests(
        self, requests: Sequence[QueryRequest], span: object
    ) -> List[object]:
        """The pipeline: prepare each request, score every prepared plan
        in one pass, finish each request -- under the caller's root span.

        One :class:`Deadline` per request spans all three stages: the
        request's own (already ticking), else a freshly minted
        ``request_deadline`` budget unless an ambient one is armed.  It
        is armed around the per-request stages and checked immediately
        before the shared scoring pass, which expires overrun requests
        without dispatching them.
        """
        t0 = time.perf_counter()
        outcomes: List[object] = [None] * len(requests)
        deadlines = [
            req.deadline if req.deadline is not None else self._policies.new_deadline()
            for req in requests
        ]
        to_score: List[_BatchEntry] = []
        for i, req in enumerate(requests):
            try:
                with armed_deadline(deadlines[i]):
                    entry = self._prepare_request(req)
            except Exception as exc:  # per-request isolation by contract
                outcomes[i] = exc
                continue
            entry.index = i
            if entry.results is not None:
                outcomes[i] = entry.results
            else:
                to_score.append(entry)
        for entry in to_score:
            if deadlines[entry.index] is not None:
                try:
                    deadlines[entry.index].check("search.batch_score")
                except DeadlineExceeded as exc:
                    outcomes[entry.index] = exc
        to_score = [e for e in to_score if outcomes[e.index] is None]
        plans = [plan for entry in to_score for plan in entry.plans]
        # a clip's distance stage is the shared pass (all of it, in a batch)
        clips = any(entry.clip for entry in to_score)
        with self._obs.span("search.video.distance", plans=len(plans)) if clips else NULL_SPAN:
            scored = iter(self._score_plans(plans) if plans else [])
        for entry in to_score:
            per_plan = [next(scored) for _plan in entry.plans]
            failed = next((s for s in per_plan if isinstance(s, Exception)), None)
            if failed is not None:
                outcomes[entry.index] = failed
                continue
            try:
                with armed_deadline(deadlines[entry.index]):
                    outcomes[entry.index] = self._finish_request(entry, per_plan)
            except Exception as exc:  # per-request isolation by contract
                outcomes[entry.index] = exc
        span.annotate(scored=len(to_score))
        for req, outcome in zip(requests, outcomes):
            if isinstance(outcome, SearchResults):
                self._record_query(req.kind, t0, outcome.n_candidates, outcome, span)
            elif not isinstance(outcome, Exception):
                self._record_query(req.kind, t0, span=span)
        return outcomes

    # -- stage 1: prepare ---------------------------------------------------------

    def _prepare_request(self, req: QueryRequest) -> _BatchEntry:
        """The cache lookup, pruning, extraction and the plan(s) for one request."""
        if req.image is not None:
            return self._prepare_frame_request(req)
        if req.clip is not None:
            return self._prepare_video_request(req)
        return self._prepare_vectors_request(req)

    def _cache_bypass(self) -> Optional[str]:
        """Why the query cache is not consulted (None = it is).

        With faults armed, a cached answer could outlive the chaos run
        (or hide it), so chaos queries bypass the result cache.
        """
        if self._policies.faults.armed:
            return "bypass"
        return None if self._query_cache.enabled else "off"

    def _cached(self, entry: _BatchEntry, key: tuple) -> bool:
        """The request's one query-cache lookup; a hit resolves ``entry``."""
        entry.key, entry.generation = key, self.store.generation
        cached = self._query_cache.get(key, entry.generation)
        if cached is not None:
            entry.results = self._copy_results(cached, "hit")
        return cached is not None

    def _planned(self, entry: _BatchEntry, plan: _QueryPlan) -> _BatchEntry:
        """``entry`` carrying ``plan``, or resolved when nothing is left to score."""
        if plan.empty is not None:
            entry.results = self._finish_entry(entry, plan.empty)
        else:
            entry.plans = [plan]
        return entry

    def _prepare_frame_request(self, req: QueryRequest) -> _BatchEntry:
        """Cache lookup on the pixels, range-index pruning, query-feature
        extraction and the IVF probe, then the scoring plan."""
        names = self._resolve_features(req.features)
        use_index = self.config.use_index if req.use_index is None else req.use_index
        entry = _BatchEntry(cache_mode=self._cache_bypass())
        if entry.cache_mode is None:  # no pixel digest when the cache is off
            key = ("frame", digest_array(req.image.pixels), tuple(names), req.top_k, use_index)
            if self._cached(entry, key):
                return entry
        self._policies.check_stage("search.prune")
        rows: Optional[np.ndarray] = None  # the whole store (or the ANN probe)
        if use_index:
            with self._obs.span("search.index.prune"):
                rows = self.index.candidate_rows(
                    self.index.finder.bucket_for_image(req.image)
                )
            n_total = len(self.store)
            if n_total:
                self._m_pruning.observe(1.0 - rows.size / n_total)
        self._policies.check_stage("search.extract")
        with self._obs.span("search.extract"):
            (query_vectors,), degraded = self._analyse_query([req.image], names)
        ann_probed: Optional[bool] = None
        if self.ann is not None and rows is not None:
            # compose with the range index: a frame must survive both
            with self._obs.span("search.ann.probe"):
                ann_ids = self._ann_probe(query_vectors)
            ann_probed = ann_ids is not None
            if ann_ids is not None:
                rows = rows[np.isin(self.store.ids[rows], ann_ids)]
        entry.frame = {
            "degraded": degraded,
            "use_index": use_index,
            "ann_probed": ann_probed,
        }
        plan = self._plan_vectors(
            query_vectors, list(query_vectors), req.top_k, None, rows
        )
        return self._planned(entry, plan)

    def _analyse_query(self, frames: List[Image], names: List[str]) -> tuple:
        """``(per-frame query vectors, dropped features)`` from the pool's
        two lanes, with per-feature graceful degradation.

        ``extractor.<name>`` fires here, on the calling thread, per frame
        and live feature before the lanes start.  A feature whose fault
        fires or whose extractor raises on any frame is dropped from every
        frame and recorded once; the survivors' fusion weights renormalize
        downstream, so the degraded ranking is exactly the ranking the
        surviving feature subset would produce on its own.  Only when
        *every* feature fails does the query error out.
        """
        failed: Dict[str, Exception] = {}
        for _frame in frames:
            for name in names:
                if name not in failed:
                    try:
                        self._policies.fire(f"extractor.{name}")
                    except FaultInjected as exc:
                        failed[name] = exc
        live = {n: self.extractors[n] for n in names if n not in failed}
        analysis = analyse_frames(frames, live, self._pool, degrade=True)
        failed.update(analysis.failed)
        degraded = [n for n in names if n in failed]
        for name in degraded:
            self._policies.note_degraded(f"extractor.{name}")
            self._log.warning(
                "search.extractor_degraded",
                feature=name,
                error=f"{type(failed[name]).__name__}: {failed[name]}",
            )
        if len(degraded) == len(names):
            raise failed[degraded[-1]]  # nothing survived: degradation is impossible
        return analysis.features, degraded

    def _ann_probe(self, query_vectors: Dict[str, FeatureVector]):
        """IVF probe of the ``config.ann_nprobe`` nearest cells.

        Returns the candidate ids, or None for the exact brute-force
        fallback, taken whenever the probe fails.
        """
        if self.ann is None:
            return None
        try:
            self._policies.fire("ann.probe")
            return self.ann.probe(query_vectors, self.config.ann_nprobe)
        except DeadlineExceeded:
            raise
        except Exception as exc:
            self._policies.note_fallback("ann_brute_force")
            self._log.warning(
                "search.ann_probe_failed",
                error=f"{type(exc).__name__}: {exc}",
                fallback="brute_force",
            )
            return None

    def _vectors_key(
        self,
        query_vectors: Dict[str, FeatureVector],
        names: List[str],
        top_k: int,
        candidate_ids: Optional[Sequence[int]],
    ) -> tuple:
        """A vector request's query-cache key."""
        return (
            "vectors",
            digest_vectors({n: query_vectors[n] for n in names}),
            tuple(names),
            top_k,
            None
            if candidate_ids is None
            else digest_array(np.asarray(candidate_ids, dtype=np.int64)),
        )

    def _prepare_vectors_request(self, req: QueryRequest) -> _BatchEntry:
        """Validation, cache lookup on the vectors and the scoring plan."""
        names = [n for n in req.query_vectors if n in self.extractors]
        if not names:
            raise ValueError("query_vectors holds no configured features")
        args = (req.query_vectors, names, req.top_k, req.candidate_ids)
        entry = _BatchEntry(cache_mode=self._cache_bypass())
        if entry.cache_mode is None and self._cached(entry, self._vectors_key(*args)):
            return entry
        return self._planned(entry, self._plan_vectors(*args))

    def _prepare_video_request(self, req: QueryRequest) -> _BatchEntry:
        """Key-frame the clip, extract its features over the pool, and
        resolve one exact plan per query key frame over the store's
        video-major rows (each video's frames adjacent, in temporal
        order: the columns of the clip's cost matrices).  Clip answers
        are not cached."""
        names = self._resolve_features(req.features)
        entry = _BatchEntry(clip=True)
        if not len(self.store):  # nothing to rank: skip the clip analysis
            entry.results = []
            return entry
        self._policies.check_stage("search.keyframes")
        with self._obs.span("search.video.keyframes"):
            key_frames = [f for _i, f in self.keyframe_extractor.extract(list(req.clip))]
        # per-key-frame extraction is the query-side CPU hot spot; a feature
        # lost on any key frame leaves every cost matrix
        self._policies.check_stage("search.extract")
        with self._obs.span("search.video.extract", key_frames=len(key_frames)):
            query_seq, _degraded = self._analyse_query(key_frames, names)
        names = list(query_seq[0])
        rows, _spans = self.store.video_spans()
        entry.plans = [
            self._plan_vectors(
                query_vectors, names, req.top_k, None, rows=rows, exact=True
            )
            for query_vectors in query_seq
        ]
        return entry

    def _new_plan(
        self,
        query_vectors: Dict[str, FeatureVector],
        names: List[str],
        top_k: int,
        candidate_ids: Sequence[int],
        **explain: object,
    ) -> _QueryPlan:
        """A plan over ``candidate_ids`` with its explain payload started
        (``explain`` adds the engine's own blocks); an empty candidate
        set resolves it on the spot."""
        n_total = len(self.store)
        plan = _QueryPlan(
            query_vectors=query_vectors,
            names=list(names),
            top_k=int(top_k),
            candidate_ids=candidate_ids,
            n_total=n_total,
            explain={
                "kind": "vectors",
                "features": list(names),
                "top_k": int(top_k),
                "n_total": n_total,
                "n_candidates": len(candidate_ids),
                **explain,
            },
        )
        if not len(candidate_ids):
            plan.empty = SearchResults(
                [], n_candidates=0, n_total=n_total, explain=plan.explain
            )
        return plan

    def _plan_vectors(
        self,
        query_vectors: Dict[str, FeatureVector],
        names: List[str],
        top_k: int,
        candidate_ids: Optional[Sequence[int]],
        rows: Optional[np.ndarray] = None,
        exact: bool = False,
    ) -> _QueryPlan:
        """Resolve the candidate set -- the range index's stack ``rows``,
        given ids, IVF-probed ids, or the whole store (always, when
        ``exact``: a clip never probes) -- into a :class:`_QueryPlan`."""
        self._policies.check_stage("search.score")
        ann_probed = False
        if not exact and candidate_ids is None and rows is None and self.ann is not None:
            candidate_ids = self._ann_probe(query_vectors)
            ann_probed = candidate_ids is not None
        if candidate_ids is not None:
            # one binary search maps candidate ids to stack rows for every
            # feature (preparation commutes with row gathers)
            candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
            rows = self.store.matrix_rows(candidate_ids)
        else:
            ids = self.store.ids
            candidate_ids = ids if rows is None else ids[rows]
        plan = self._new_plan(
            query_vectors,
            names,
            top_k,
            candidate_ids,
            ann={"enabled": self.ann is not None, "probed": ann_probed},
        )
        plan.rows = rows
        return plan

    # -- stage 2: score -------------------------------------------------------------

    def _score_plans(self, plans: Sequence[_QueryPlan]) -> List[object]:
        """Raw per-feature distances over each plan's candidate rows;
        per-plan exceptions are captured in place.

        The pass walks feature by feature across the plans, so a
        feature's prepared stack (cached per generation; subsets are
        gathered block by block inside the kernel) stays in cache across
        a clip's key frames.  A pass of at least ``_SPLIT_MIN_WORK``
        candidate rows x features runs on two lanes: every plan's rows
        are cut at their midpoint, the calling thread scores the lower
        halves while the pool's helper lane scores the upper ones, and
        each distance array is the concatenation of its two halves --
        bitwise what one lane computes, since every kernel reduces each
        row on its own.  Each wanted prepared stack is looked up once,
        here, before the lanes start (a lazy fill writes to the store);
        a lookup that fails fails every plan wanting that feature.  The
        sharded engine overrides this with one scatter per shard covering
        every plan.  One poisoned plan must not fail its batchmates: its
        slot holds the exception instead of a distance dict.
        """
        prepared: Dict[str, object] = {}
        wanted = {name for plan in plans for name in plan.names}
        for name in self.extractors:
            if name in wanted:
                try:
                    prepared[name] = self._prepared_matrix(name)
                except Exception as exc:  # noqa: BLE001 - isolation by contract
                    prepared[name] = exc
        sizes = [len(plan.candidate_ids) for plan in plans]
        work = sum(n * len(plan.names) for n, plan in zip(sizes, plans))
        lane = self._pool.lane() if work >= _SPLIT_MIN_WORK else None
        if lane is None:
            out, seconds = _score_rows(
                self.extractors, plans, prepared, [(0, n) for n in sizes]
            )
        else:
            mids = [n // 2 for n in sizes]
            future = lane.submit(
                _score_rows, self.extractors, plans, prepared, list(zip(mids, sizes))
            )
            try:
                out, seconds = _score_rows(
                    self.extractors, plans, prepared, [(0, m) for m in mids]
                )
            except BaseException:
                wait([future])  # the helper lane finishes before the error unwinds
                raise
            upper, upper_seconds = future.result()
            for i, (high, high_s) in enumerate(zip(upper, upper_seconds)):
                out[i] = _joined(out[i], high)
                for name, s in high_s.items():
                    seconds[i][name] = seconds[i].get(name, 0.0) + s
        for plan, plan_seconds in zip(plans, seconds):
            plan.distance_s = plan_seconds
            plan.score_lanes = 1 if lane is None else 2
        return out

    def _observe_distance(
        self, plans: Sequence[_QueryPlan]
    ) -> Optional[Dict[str, float]]:
        """One request's kernel time per feature, summed over its plans:
        observed once per request and returned in ms for the explain
        payload (None when the shard workers did the timing)."""
        if plans[0].distance_s is None:
            return None
        distance_ms: Dict[str, float] = {}
        for name in plans[0].names:
            dt = sum(plan.distance_s[name] for plan in plans)
            self._m_distance_seconds.labels(feature=name).observe(dt)
            distance_ms[name] = round(dt * 1000.0, 3)
        return distance_ms

    # -- stage 3: finish ------------------------------------------------------------

    def _finish_request(
        self, entry: _BatchEntry, scored: List[Dict[str, np.ndarray]]
    ) -> object:
        """Rank, then annotate and cache, after the shared scoring pass."""
        if entry.clip:
            return self._finish_video_request(entry, scored)
        return self._finish_entry(entry, self._rank_plan(entry.plans[0], scored[0]))

    def _rank_plan(
        self, plan: _QueryPlan, per_feature: Dict[str, np.ndarray]
    ) -> SearchResults:
        """Fusion + stable top-k over the plan's scored distances."""
        names = plan.names
        t_fuse = time.perf_counter()
        if len(names) == 1:
            fused = np.asarray(per_feature[names[0]], dtype=np.float64)
        else:
            weights = {n: self.config.weight_of(n) for n in names}
            fused = CombinedScorer(FeatureWeights(weights)).fuse(per_feature)
        t_fuse = time.perf_counter() - t_fuse
        plan.explain["timings_ms"] = {
            "distance": self._observe_distance([plan]),
            "fusion": round(t_fuse * 1000.0, 3),
            "score_lanes": plan.score_lanes,
        }
        self._m_fusion_seconds.observe(t_fuse)

        # one gather per column at the selected rows, not a record per hit
        sel = _stable_topk(fused, max(0, plan.top_k))
        if plan.rows is None:  # the whole store, or a shard merge's ids
            rows = self.store.matrix_rows(plan.candidate_ids[sel])
        else:
            rows = plan.rows[sel]
        columns = self.store.columns
        values = {n: per_feature[n][sel].tolist() for n in names}
        hits = []
        for j, (frame_id, video_id, frame_name, distance) in enumerate(
            zip(
                columns.ids[rows].tolist(),
                columns.video_ids[rows].tolist(),
                columns.frame_names[rows].tolist(),
                fused[sel].tolist(),
            )
        ):
            video = self.store.video(video_id)
            hits.append(
                RetrievalResult(
                    frame_id=frame_id,
                    video_id=video_id,
                    video_name=video.name,
                    frame_name=frame_name,
                    category=video.category,
                    distance=distance,
                    per_feature={n: values[n][j] for n in names},
                )
            )
        return SearchResults(
            hits,
            n_candidates=len(plan.candidate_ids),
            n_total=plan.n_total,
            explain=plan.explain,
        )

    def _finish_entry(self, entry: _BatchEntry, results: SearchResults) -> SearchResults:
        """Frame-level annotations, then the request's one cache put (or
        the reason there is none)."""
        explain = results.explain
        explain["cache"] = entry.cache_mode or "miss"
        if entry.frame is not None:
            degraded = entry.frame["degraded"]
            explain["kind"] = "frame"
            explain["index"] = {
                "used": bool(entry.frame["use_index"]),
                "pruning_ratio": round(results.pruning_fraction, 6),
            }
            ann_probed = entry.frame["ann_probed"]
            if ann_probed is not None:  # the frame-level probe decided
                explain["ann"] = {"enabled": True, "probed": ann_probed}
            if degraded:
                results.degraded = True
                results.degraded_features = degraded
                explain["degraded_features"] = list(degraded)
        if entry.cache_mode is not None or results.degraded:
            return results  # a degraded answer is never cached
        self._query_cache.put(entry.key, entry.generation, results)
        return self._copy_results(results, "miss")

    def _finish_video_request(
        self, entry: _BatchEntry, scored: List[Dict[str, np.ndarray]]
    ) -> List[VideoMatch]:
        """Stack the clip's plans into ``(n_query, n_frames)`` cost
        matrices, fuse them, and align the clip against every video."""
        plans = entry.plans
        names = plans[0].names
        # the scored candidates (a lost shard's are already compacted
        # away) are still video-major: each video is one run of their
        # video-id column, and one span of the matrices' columns
        vids = self.store.columns.video_ids[
            self.store.matrix_rows(plans[0].candidate_ids)
        ]
        starts = np.flatnonzero(np.r_[True, vids[1:] != vids[:-1]]).tolist()
        spans = [slice(a, b) for a, b in zip(starts, starts[1:] + [vids.size])]
        self._observe_distance(plans)

        # Each feature is min-max normalized over the *entire* scored frame
        # population, so normalization is global: a video whose frames are
        # all far from the query must keep a large cost, not normalize down
        # to zero.
        t_fuse = time.perf_counter()
        nq, nr = len(plans), vids.size
        combined = np.zeros((nq, nr))
        total_weight = 0.0
        for name in names:
            w = self.config.weight_of(name)
            raw = np.stack([per_feature[name] for per_feature in scored])
            combined += w * normalize_scores(raw.ravel()).reshape(nq, nr)
            total_weight += w
        if total_weight > 0:
            combined /= total_weight
        self._m_fusion_seconds.observe(time.perf_counter() - t_fuse)

        with self._obs.span("search.video.dp", videos=len(spans)):
            distances = span_distances(combined, spans)
        matches = []
        for video_id, distance in zip(vids[starts].tolist(), distances):
            video = self.store.video(video_id)
            matches.append(
                VideoMatch(video_id, video.name, video.category, float(distance))
            )
        matches.sort(key=lambda m: m.distance)
        return matches[: max(0, plans[0].top_k)]

    # -- helpers -------------------------------------------------------------------------

    def _resolve_features(self, features: Optional[Sequence[str]]) -> List[str]:
        if features is None:
            return list(self.config.features)
        if isinstance(features, str):
            features = [features]
        names = list(features)
        if not names:
            raise ValueError("features must not be empty")
        unknown = [n for n in names if n not in self.extractors]
        if unknown:
            raise ValueError(
                f"features {unknown} are not configured; active: {sorted(self.extractors)}"
            )
        return names
