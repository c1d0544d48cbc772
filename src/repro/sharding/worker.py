"""Shard worker tasks: raw per-feature distances over one partition.

These module-level functions run inside the coordinator's persistent
per-shard worker processes (``WorkerPool.submit``).  A worker takes
everything it needs from the task: the task names its partition's
snapshot, the process mmaps it on the first task that does and caches
the resulting read-replica store across queries, and the in-process
serial fallback (broken pool, unpicklable payload) scores the right
partition the same way.  There is one scoring task,
:func:`score_vectors_shard`, for all three query kinds: a clip reaches
it as one query per key frame.

Workers return **raw** distances, never fused scores: the combined
ranking min-max normalizes each feature over the *global* candidate set,
so normalizing per shard would change the merged order.  Every distance
kernel is rowwise (no matrix-global statistics), hence a shard's rows
are bit-identical to the same rows of a full-store computation, and the
coordinator's merge reproduces the single-store ranking byte for byte.

Observability crosses the process boundary through the task itself: the
coordinator stamps a trace context (``obs_ctx``) into every task, the
worker rebuilds its span subtree under it and accumulates metrics into a
process-local registry, and the :class:`ShardReply` carries the
serialized subtree plus the metric *delta* since the previous reply back
for stitching/merging.  ``obs_ctx=None`` (observability disabled) keeps
the worker on shared null objects.

Module state is lock-guarded for R15: worker processes are effectively
single-threaded, but the serial fallback shares this module with the
(possibly threaded) parent.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.snapshots import open_snapshot_store
from repro.core.store import FeatureStore
from repro.features.base import FeatureExtractor, get_extractor
from repro.obs import NULL_SPAN, MetricsRegistry, capture_subtree, diff_state, free_span, log
from repro.obs.metrics import NULL_METRIC
from repro.snapshot import Snapshot

__all__ = [
    "ShardReply",
    "score_vectors_shard",
    "drain_worker_metrics",
    "reset_worker_state",
]

_log = log.get_logger(__name__)

#: histogram edges for per-shard scored row counts (counts, not seconds)
_ROW_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0,
    16384.0, 65536.0,
)


@dataclass
class ShardReply:
    """One task's answer plus its piggybacked observability payload.

    ``span`` is the serialized span subtree (``Span.to_dict`` form) when
    the propagated context was sampled, ``metrics`` the registry delta
    since this worker's previous reply (``MetricsRegistry.state`` form,
    already diffed) when the context requested metrics.
    """

    value: object
    span: Optional[Dict[str, object]] = None
    metrics: Optional[Dict[str, object]] = None


class _ShardState:
    """One opened partition: mmap snapshot + store + extractor cache."""

    __slots__ = ("snapshot", "store", "extractors")

    def __init__(self, snapshot: Snapshot, store: FeatureStore):
        self.snapshot = snapshot
        self.store = store
        self.extractors: Dict[str, FeatureExtractor] = {}

    def extractor(self, name: str) -> FeatureExtractor:
        if name not in self.extractors:
            self.extractors[name] = get_extractor(name)
        return self.extractors[name]


class _WorkerMetrics:
    """The worker process's own registry plus delta bookkeeping.

    Families deliberately use a ``repro_worker_*`` prefix distinct from
    the coordinator's: the coordinator merges deltas with a ``shard``
    label, and distinct names keep fleet aggregates from colliding with
    the coordinator's in-process instrumentation.
    """

    __slots__ = ("registry", "queries", "seconds", "rows", "distance_seconds",
                 "snapshot_opens", "resets", "drains", "_last")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.queries = self.registry.counter(
            "repro_worker_queries_total",
            "Shard tasks executed in this worker, by kind.",
            labelnames=("kind",),
        )
        self.seconds = self.registry.histogram(
            "repro_worker_query_seconds",
            "Shard task wall time inside the worker, by kind.",
            labelnames=("kind",),
        )
        self.rows = self.registry.histogram(
            "repro_worker_rows_scored",
            "Rows (frames) scored per shard task.",
            buckets=_ROW_BUCKETS,
        )
        self.distance_seconds = self.registry.histogram(
            "repro_worker_distance_seconds",
            "Per-feature distance kernel time per shard task.",
            labelnames=("feature",),
        )
        self.snapshot_opens = self.registry.counter(
            "repro_worker_snapshot_opens_total",
            "Partition snapshots mmapped by this worker.",
        )
        self.resets = self.registry.counter(
            "repro_worker_resets_total",
            "Times the worker's partition cache was dropped.",
        )
        self.drains = self.registry.counter(
            "repro_worker_metric_drains_total",
            "Explicit drains (worker recycle / coordinator shutdown).",
        )
        self._last: Dict[str, object] = {}

    def delta(self) -> Optional[Dict[str, object]]:
        """Registry changes since the previous delta (None when quiet)."""
        current = self.registry.state()
        changed = diff_state(current, self._last)
        self._last = current
        return changed or None


class _NullWorkerMetrics:
    """Null twin handed out when the task carries no metrics request."""

    __slots__ = ()

    queries = NULL_METRIC
    seconds = NULL_METRIC
    rows = NULL_METRIC
    distance_seconds = NULL_METRIC
    snapshot_opens = NULL_METRIC
    resets = NULL_METRIC

    @staticmethod
    def delta() -> None:
        return None


_NULL_WORKER_METRICS = _NullWorkerMetrics()

_state_lock = threading.Lock()
_states: Dict[str, _ShardState] = {}
_metrics_lock = threading.Lock()
_worker_metrics: Optional[_WorkerMetrics] = None


def _metrics(want: bool = True):
    """The process-wide worker metric bundle (created on first request)."""
    global _worker_metrics
    if not want:
        return _NULL_WORKER_METRICS
    with _metrics_lock:
        if _worker_metrics is None:
            _worker_metrics = _WorkerMetrics()
        return _worker_metrics


def _shard_state(path: str, metrics=_NULL_WORKER_METRICS) -> _ShardState:
    with _state_lock:
        state = _states.get(path)
        if state is None:
            snapshot, store = open_snapshot_store(path)
            state = _ShardState(snapshot, store)
            _states[path] = state
            metrics.snapshot_opens.inc()
    return state


def reset_worker_state() -> None:
    """Drop every cached partition (tests / coordinator shutdown fallback)."""
    with _state_lock:
        for state in _states.values():
            state.snapshot.close()
        _states.clear()
    with _metrics_lock:
        if _worker_metrics is not None:
            _worker_metrics.resets.inc()


def _reset_metrics_for_tests() -> None:
    """Forget the metric bundle, as a fresh worker process would."""
    global _worker_metrics
    with _metrics_lock:
        _worker_metrics = None


def drain_worker_metrics() -> Optional[Dict[str, object]]:
    """Ship metric deltas not yet piggybacked on a task reply.

    The coordinator submits this on shutdown (and the pool's recycle
    path) so counts recorded between a worker's last query reply and its
    death -- snapshot opens, resets -- still reach the fleet aggregate.
    """
    bundle = _metrics()
    bundle.drains.inc()
    with _metrics_lock:
        return bundle.delta()


def _span(sampled: bool, name: str, **attrs: object):
    """A child span of the capture root when sampled, the null span otherwise."""
    return free_span(name, **attrs) if sampled else NULL_SPAN


def score_vectors_shard(
    path: str,
    queries: Sequence[tuple],
    obs_ctx: Optional[Mapping[str, object]] = None,
) -> ShardReply:
    """Raw per-feature distances for this shard's slice of each query.

    ``queries`` holds one ``(query_vectors, names, candidate_ids)`` tuple
    per plan of the coordinator's scoring pass (a solo frame or vector
    query is a list of one, a clip one per query key frame); the reply's
    value is the list of per-feature distance dicts in the same order.
    Every query is scored on its own against the partition's prepared
    stacks -- the list collapses per-request IPC, it never stacks query
    vectors into one multi-query kernel, so each array is byte-identical
    however the requests were batched.
    ``candidate_ids=None`` means every frame of the partition -- the
    common case, which skips the row gather entirely.
    """
    ctx = obs_ctx or {}
    sampled = bool(ctx.get("sampled"))
    metrics = _metrics(bool(ctx.get("metrics")))
    shard = ctx.get("shard")
    t0 = time.perf_counter()
    span_dict: Optional[Dict[str, object]] = None
    if sampled:
        with capture_subtree(
            "shard.score_vectors", ctx, shard=shard, queries=len(queries)
        ) as root:
            values, n_rows = _score_vectors(path, queries, metrics, sampled)
            root.annotate(rows=n_rows)
        span_dict = root.to_dict()
    else:
        values, n_rows = _score_vectors(path, queries, metrics, sampled)
    elapsed = time.perf_counter() - t0
    metrics.queries.labels(kind="vectors").inc()
    metrics.seconds.labels(kind="vectors").observe(elapsed)
    metrics.rows.observe(n_rows)
    _log.debug(
        "shard.score_vectors", shard=shard, queries=len(queries), rows=n_rows,
        ms=round(elapsed * 1000.0, 2),
    )
    with _metrics_lock:
        delta = metrics.delta()
    return ShardReply(value=values, span=span_dict, metrics=delta)


def _score_vectors(
    path: str, queries: Sequence[tuple], metrics, sampled: bool
) -> Tuple[List[Dict[str, np.ndarray]], int]:
    state = _shard_state(path, metrics)
    store = state.store
    values: List[Dict[str, np.ndarray]] = []
    all_rows: List[Optional[np.ndarray]] = []
    n_rows = 0
    for _query_vectors, names, candidate_ids in queries:
        rows = None if candidate_ids is None else store.matrix_rows(candidate_ids)
        values.append(dict.fromkeys(names))
        all_rows.append(rows)
        n_rows += len(store) if rows is None else rows.size
    # feature by feature across the queries (the base engine's pass
    # order): a feature's prepared stack stays in cache across a clip's
    # key frames, and each kernel call is the one query by query would make
    for name in dict.fromkeys(name for _qv, names, _ids in queries for name in names):
        extractor = state.extractor(name)
        t_dist = time.perf_counter()
        with _span(sampled, "shard.distance", feature=name):
            prepared = store.prepared_matrix(name, extractor)
            for (query_vectors, names, _ids), per_feature, rows in zip(
                queries, values, all_rows
            ):
                if name in names:
                    per_feature[name] = extractor.batch_distance_prepared(
                        query_vectors[name], prepared, rows
                    )
        metrics.distance_seconds.labels(feature=name).observe(
            time.perf_counter() - t_dist
        )
    return values, n_rows
