"""The scatter-gather coordinator: one engine over N shard partitions.

:class:`ShardedSearchEngine` subclasses the single-store
:class:`~repro.core.search.SearchEngine` and keeps its whole query-side
surface -- range-index pruning, query cache, extractor degradation,
deadlines, the clip's key-framing and DP alignment -- while replacing the
distance computation: it overrides the pipeline's plan / score / rank
seams and nothing else.  Every plan's candidates are split by owning
shard, scored in parallel by persistent snapshot-backed worker processes,
and merged back coordinator-side.

The merge is **byte-identical** to the single-store ranking because the
shards return raw per-feature distances (see :mod:`repro.sharding.worker`)
which are reassembled in global candidate order before the one global
min-max normalization + weighted fusion + stable top-k the base engine
runs.  A shard that fails (or whose circuit breaker is open) degrades to
a partial ranking over the surviving partitions -- exactly the ranking a
store holding only those partitions would produce -- surfaced via
``SearchResults.degraded_shards``; ``config.shard_partial_ok=False``
escalates instead.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.results import SearchResults
from repro.core.search import SearchEngine, _QueryPlan
from repro.core.snapshots import open_snapshot_store
from repro.core.store import FeatureStore
from repro.indexing.rangefinder import RangeFinder
from repro.indexing.tree import RangeIndex
from repro.obs import NULL_OBS, Obs, current_trace_context, free_span, span_from_dict
from repro.resilience import (
    NULL_POLICIES,
    CircuitOpenError,
    DeadlineExceeded,
    ResiliencePolicies,
)
from repro.runtime import PoolTask, WorkerPool
from repro.sharding.worker import drain_worker_metrics, score_vectors_shard

__all__ = ["ShardedSearchEngine"]


class ShardedSearchEngine(SearchEngine):
    """Scatter-gather query execution over per-shard snapshot partitions."""

    def __init__(
        self,
        config: SystemConfig,
        shard_paths: Sequence[str],
        pool: Optional[WorkerPool] = None,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        if not shard_paths:
            raise ValueError("shard_paths must name at least one snapshot")
        if config.ann:
            raise ValueError(
                "ann is not supported with sharded serving: the "
                "coordinator merges exact raw distances"
            )
        paths = [os.path.abspath(os.fspath(p)) for p in shard_paths]
        snapshots = []
        stores: List[FeatureStore] = []
        try:
            for path in paths:
                snapshot, store = open_snapshot_store(path)
                snapshots.append(snapshot)
                stores.append(store)
            merged, index = self._merge(config, stores)
        except Exception:
            for snapshot in snapshots:
                snapshot.close()
            raise
        # the base engine runs pruning/extraction/cache over the merged
        # store; its pool only does query-side key-frame extraction
        super().__init__(
            config, merged, index, pool=pool or WorkerPool(workers=1),
            obs=obs, policies=policies,
        )
        self._snapshots = snapshots
        self._paths = paths
        # merged-row -> owning shard, aligned with merged.frame_ids()
        global_ids = merged.ids
        self._row_shard = np.empty(global_ids.size, dtype=np.int64)
        self._shard_frame_ids: List[np.ndarray] = []
        for s, store in enumerate(stores):
            ids = store.ids
            self._shard_frame_ids.append(ids)
            if ids.size:
                self._row_shard[np.searchsorted(global_ids, ids)] = s
        self._global_ids = global_ids
        # one persistent single-worker pool per shard: the worker process
        # mmaps its partition on the first task that names it and stays
        # up across queries instead of re-forking per request
        self._shard_pools = [WorkerPool(workers=1) for _path in paths]
        self._breakers = [
            policies.make_breaker(f"shard{s}") if policies.enabled else None
            for s in range(len(paths))
        ]
        self._m_shard_queries = obs.counter(
            "repro_shard_queries_total",
            "Shard dispatches, by shard and outcome.",
            labelnames=("shard", "outcome"),
        )
        self._m_shard_seconds = obs.histogram(
            "repro_shard_query_seconds",
            "Per-shard dispatch-to-gather wall time.",
            labelnames=("shard",),
        )
        self._m_merge_seconds = obs.histogram(
            "repro_shard_merge_seconds",
            "Coordinator-side merge (assemble + fuse + top-k) wall time.",
        )
        self._m_partials = obs.counter(
            "repro_shard_partial_results_total",
            "Queries answered with at least one shard missing.",
        )
        obs.gauge("repro_shards", "Configured shard count.").set(len(paths))

    @staticmethod
    def _merge(
        config: SystemConfig, stores: Sequence[FeatureStore]
    ) -> Tuple[FeatureStore, RangeIndex]:
        """One store + range index over every partition's columns.

        Duplicate frame ids (overlapping shard sets) fail fast in
        ``FeatureStore.merged``.
        """
        merged = FeatureStore.merged(stores)
        finder = RangeFinder(
            first_threshold=config.index_first_threshold,
            threshold=config.index_threshold,
            max_level=config.index_max_level,
        )
        return merged, RangeIndex(finder, merged)

    @property
    def n_shards(self) -> int:
        return len(self._paths)

    # -- scatter-gather core ---------------------------------------------------

    def _scatter(
        self, payloads: Sequence[Tuple[int, tuple]]
    ) -> Tuple[Dict[int, object], List[int], Dict[int, Dict[str, object]]]:
        """Dispatch ``score_vectors_shard(*args)`` to each listed shard's
        worker; gather.

        Returns ``(results_by_shard, degraded_shards, shard_meta)`` where
        ``shard_meta`` carries per-shard wall time / outcome for explain
        payloads.  Per-shard failures -- an open breaker, an injected
        ``shard.query`` fault, a dead worker past the pool's own serial
        fallback -- drop the shard into ``degraded_shards`` and feed its
        breaker; deadline overruns always escalate.  Raises the last
        shard error when nothing survived or ``config.shard_partial_ok``
        is off.

        Observability rides on the tasks themselves: each payload is
        extended with a trace context (trace id, the scatter span as
        parent, a per-shard label, and a metrics request), replies carry
        serialized span subtrees that are stitched under the scatter span
        plus registry deltas merged ``shard``-labeled into the
        coordinator's registry.
        """
        with self._obs.span("search.scatter", shards=len(payloads)) as scatter_span:
            ctx: Optional[Dict[str, object]] = None
            if self._obs.enabled:
                ctx = current_trace_context() or {
                    "trace_id": None, "span_id": None, "sampled": False,
                }
                ctx["metrics"] = True
            pending: List[Tuple[int, PoolTask, float]] = []
            gathered: Dict[int, object] = {}
            shard_meta: Dict[int, Dict[str, object]] = {}
            degraded: List[int] = []
            last_error: Optional[Exception] = None
            for s, args in payloads:
                breaker = self._breakers[s]
                t0 = time.perf_counter()
                try:
                    if breaker is not None:
                        breaker.guard()
                    self._policies.fire("shard.query")
                    task_ctx = dict(ctx, shard=s) if ctx is not None else None
                    task = self._shard_pools[s].submit(
                        score_vectors_shard, *args, task_ctx
                    )
                except CircuitOpenError as exc:
                    last_error = exc
                    degraded.append(s)
                    self._shard_down(s, "breaker_open", shard_meta)
                    continue
                except DeadlineExceeded:
                    raise
                except Exception as exc:
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = exc
                    degraded.append(s)
                    self._shard_down(s, f"{type(exc).__name__}: {exc}", shard_meta)
                    continue
                pending.append((s, task, t0))
            for s, task, t0 in pending:
                breaker = self._breakers[s]
                try:
                    reply = task.result()
                except DeadlineExceeded:
                    raise
                except Exception as exc:
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = exc
                    degraded.append(s)
                    self._shard_down(s, f"{type(exc).__name__}: {exc}", shard_meta)
                    continue
                if breaker is not None:
                    breaker.record_success()
                wall = time.perf_counter() - t0
                self._m_shard_seconds.labels(shard=str(s)).observe(wall)
                self._m_shard_queries.labels(shard=str(s), outcome="ok").inc()
                gathered[s] = reply.value
                shard_meta[s] = {
                    "shard": s,
                    "status": "ok",
                    "wall_ms": round(wall * 1000.0, 3),
                    "inline": task.inline,
                }
                if reply.span is not None:
                    scatter_span.attach(span_from_dict(reply.span))
                if reply.metrics is not None:
                    self._obs.registry.merge_state(
                        reply.metrics, {"shard": str(s)}
                    )
            if degraded:
                degraded.sort()
                self._m_partials.inc()
                if not gathered or not self.config.shard_partial_ok:
                    raise last_error
                scatter_span.annotate(degraded_shards=",".join(map(str, degraded)))
                if ctx is not None and ctx.get("sampled"):
                    # keep the trace honest: a missing partition shows up
                    # as an explicit error child, not a silent hole
                    for s in degraded:
                        marker = free_span("shard.degraded", shard=s)
                        marker.status = "error"
                        marker.error = str(shard_meta[s].get("error", "degraded"))
                        marker.duration_ms = 0.0
                        scatter_span.attach(marker)
        return gathered, degraded, shard_meta

    def _shard_down(
        self,
        shard: int,
        reason: str,
        shard_meta: Optional[Dict[int, Dict[str, object]]] = None,
    ) -> None:
        self._m_shard_queries.labels(shard=str(shard), outcome="error").inc()
        self._policies.note_degraded(f"shard.{shard}")
        self._log.warning("search.shard_degraded", shard=shard, reason=reason)
        if shard_meta is not None:
            shard_meta[shard] = {"shard": shard, "status": "error", "error": reason}

    # -- the three seams the base pipeline leaves open: plan / score / rank -------

    def _plan_vectors(
        self,
        query_vectors,
        names: List[str],
        top_k: int,
        candidate_ids,
        weights,
        nprobe=None,
        rows=None,
        exact=False,
    ) -> _QueryPlan:
        """Split the candidate set (merged-store ``rows`` -- the range
        index's, or a clip's video-major order --, given ids, or
        everything) by owning shard into scatter payloads.  Always exact:
        there is no IVF index to probe here."""
        self._policies.check_stage("search.score")
        if candidate_ids is not None:
            candidate_arr = np.asarray(candidate_ids, dtype=np.int64)
            rows = self.store.matrix_rows(candidate_arr)
        elif rows is not None:
            candidate_arr = self._global_ids[rows]
        else:
            candidate_arr = self._global_ids
        plan = self._new_plan(
            query_vectors, names, top_k, weights, candidate_arr,
            sharded={"shards": self.n_shards, "dispatched": 0},
        )
        if plan.empty is not None:
            return plan
        owners = self._row_shard if rows is None else self._row_shard[rows]
        payloads: List[Tuple[int, tuple]] = []
        positions: Dict[int, np.ndarray] = {}
        for s in range(self.n_shards):
            pos = np.nonzero(owners == s)[0]
            if not pos.size:
                continue
            ids = candidate_arr[pos]
            # a shard receiving its full id list in ascending order scores
            # everything it has -- no id payload, no row gather
            if np.array_equal(ids, self._shard_frame_ids[s]):
                send: Optional[List[int]] = None
            else:
                send = [int(fid) for fid in ids]
            payloads.append((s, (query_vectors, list(names), send)))
            positions[s] = pos
        plan.payloads = payloads
        plan.positions = positions
        return plan

    def _score_plans(self, plans) -> List[object]:
        """One scatter per shard covering *every* plan of the pass.

        Each shard worker scores every plan with its own kernel calls
        (see ``score_vectors_shard``), so the returned arrays do not
        depend on how requests were batched -- a batch only collapses N
        IPC round trips per shard into one.  A shard failure degrades
        every batchmate that dispatched to it, exactly as N solo queries
        hitting the same dead shard would; a clip's plans all dispatch to
        the same shards, so they lose the same candidates.
        """
        per_shard_args: Dict[int, List[tuple]] = {}
        slot: Dict[Tuple[int, int], int] = {}
        for pi, plan in enumerate(plans):
            for s, args in plan.payloads:
                bucket = per_shard_args.setdefault(s, [])
                slot[(s, pi)] = len(bucket)
                bucket.append(args)
        payloads = [
            (s, (self._paths[s], queries))
            for s, queries in sorted(per_shard_args.items())
        ]
        try:
            gathered, degraded, shard_meta = self._scatter(payloads)
        except Exception as exc:  # every shard down / partial_ok off
            return [exc for _ in plans]
        out: List[object] = []
        for pi, plan in enumerate(plans):
            gathered_local: Dict[int, object] = {}
            meta_local: Dict[int, Dict[str, object]] = {}
            for s in plan.positions:
                if s in gathered:
                    gathered_local[s] = gathered[s][slot[(s, pi)]]
                if s in shard_meta:
                    meta_local[s] = dict(shard_meta[s])
            degraded_local = [s for s in degraded if s in plan.positions]
            try:
                out.append(
                    self._merge_gathered(
                        plan, gathered_local, degraded_local, meta_local
                    )
                )
            except Exception as exc:  # per-plan isolation by contract
                out.append(exc)
        return out

    def _merge_gathered(
        self,
        plan: _QueryPlan,
        gathered: Dict[int, object],
        degraded: List[int],
        shard_meta: Dict[int, Dict[str, object]],
    ) -> Dict[str, np.ndarray]:
        """Reassemble shard replies into global-order per-feature arrays."""
        names = plan.names
        positions = plan.positions
        for s, pos in positions.items():
            meta = shard_meta.get(s)
            if meta is not None:
                meta["candidates"] = int(pos.size)
        plan.merge_t0 = time.perf_counter()
        # reassemble each feature's raw distances in global candidate order
        per_feature: Dict[str, np.ndarray] = {}
        for s, shard_values in gathered.items():
            pos = positions[s]
            for name in names:
                dest = per_feature.get(name)
                if dest is None:
                    dest = per_feature[name] = np.empty(
                        plan.candidate_ids.size, dtype=shard_values[name].dtype
                    )
                dest[pos] = shard_values[name]
        if degraded:
            # compact over the surviving positions: exactly the arrays a
            # store holding only the surviving partitions would produce
            keep = np.sort(np.concatenate([positions[s] for s in gathered]))
            plan.candidate_ids = plan.candidate_ids[keep]
            plan.explain["n_candidates"] = int(keep.size)
            for name in names:
                per_feature[name] = per_feature[name][keep]
        plan.degraded_shards = degraded
        plan.shard_meta = shard_meta
        return per_feature

    def _rank_plan(
        self, plan: _QueryPlan, per_feature: Dict[str, np.ndarray]
    ) -> SearchResults:
        """The base engine's fusion + ranking tail (one global
        normalization over the candidate set) plus the ``sharded``
        explain block."""
        results = super()._rank_plan(plan, per_feature)
        merge_s = time.perf_counter() - plan.merge_t0
        self._m_merge_seconds.observe(merge_s)
        shard_meta = plan.shard_meta
        plan.explain["sharded"] = {
            "shards": self.n_shards,
            "dispatched": len(plan.payloads),
            "merge_ms": round(merge_s * 1000.0, 3),
            "per_shard": [shard_meta[s] for s in sorted(shard_meta)],
        }
        if plan.degraded_shards:
            results.degraded = True
            results.degraded_shards = list(plan.degraded_shards)
            plan.explain["degraded_shards"] = list(plan.degraded_shards)
        return results

    # -- introspection / shutdown ----------------------------------------------

    def sharding_stats(self) -> Dict[str, object]:
        """Shard topology + breaker states for ``system.metrics()``."""
        return {
            "shards": self.n_shards,
            "paths": list(self._paths),
            "partial_ok": bool(self.config.shard_partial_ok),
            "frames_per_shard": [int(ids.size) for ids in self._shard_frame_ids],
            "breakers": {
                f"shard{s}": breaker.stats()
                for s, breaker in enumerate(self._breakers)
                if breaker is not None
            },
        }

    def _drain_shard_metrics(self) -> None:
        """Pull each live worker's residual metric delta (drain-on-recycle).

        Counts recorded after a worker's last query reply -- snapshot
        opens, resets -- would otherwise vanish with the process.  The
        drain is strictly best-effort: a dead or never-started worker is
        skipped, shutdown never fails on it.
        """
        if not self._obs.enabled:
            return
        for s, shard_pool in enumerate(self._shard_pools):
            if not shard_pool.active:
                continue
            try:
                delta = shard_pool.submit(drain_worker_metrics).result()
            except Exception:
                continue
            if delta:
                self._obs.registry.merge_state(delta, {"shard": str(s)})

    def close(self) -> None:
        """Stop the shard workers and release the partition mmaps."""
        with self._obs.span("shard.close"):
            self._drain_shard_metrics()
            for shard_pool in self._shard_pools:
                shard_pool.close()
            for snapshot in self._snapshots:
                snapshot.close()
            super().close()
