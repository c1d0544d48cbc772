"""The traced run: a query sample replayed stage by stage, per layer.

``--trace 1`` replays a sample of the workload's queries through the
public functions of each layer, wrapping every call in one of the
benchmark's own spans (``tracing.Tracer``).  From the spans come the
per-layer medians, each layer's self time and
``core.search.unattributed_ratio``.  Spans inside ``src/`` are a later
issue; nothing here reads ``repro``'s own tracing, and the few values
read from public *output* (``SearchResults.explain``, ``GET /metrics``)
are named ``*.reported``.

End-to-end metrics are never taken from this run.  Every per-layer
metric is reported by every workload; a layer the workload never enters
reports 0 -- it did no work there.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict
from typing import Dict, List, Sequence

import numpy as np

import corpus
import env
import loadgen
import plan
import workloads
from measure import FEATURES, median
from repro.core.config import SystemConfig
from repro.core.snapshots import open_snapshot_store
from repro.core.store import FeatureStore
from repro.core.system import VideoRetrievalSystem
from repro.runtime import WorkerPool
from repro.sharding import read_manifest
from repro.similarity.dp import dtw_distance
from repro.similarity.fusion import CombinedScorer, FeatureWeights
from repro.web.api import parse_search_request, search_payload
from tracing import Tracer
from workloads import Context, Outcome

#: queries replayed per traced run (fewer when the workload has fewer)
SAMPLE = 50


def _noop(_x: object = None) -> None:
    """Module-level so a worker process can unpickle it by name."""


def _sample(ctx: Context) -> List[plan.Query]:
    return ctx.inputs.frames(workloads.QUERY_STREAM, min(SAMPLE, ctx.scale.queries))


def _finish(ctx: Context, tracer: Tracer, out: Outcome) -> Outcome:
    path = os.path.join(env.OUT_DIR, f"trace-{ctx.workload}.json")
    tracer.write(path, {"workload": ctx.workload, "seed": ctx.seed, "scale": ctx.scale_name})
    out.details["trace_file"] = os.path.relpath(path, env.REPO_ROOT)
    return out


# -- the staged replay of one frame query ----------------------------------------------------


def replay_frame_queries(
    tracer: Tracer, system: VideoRetrievalSystem, queries: Sequence[plan.Query]
) -> Dict[str, float]:
    """Replay ``queries`` stage by stage on ``system``'s engine.

    Per query: the whole ``engine.query_frame`` once (``core.search.frame``),
    then its stages one public call at a time -- range prune, the six
    extractors, the IVF probe when the engine has one, the whole
    ``query_with_vectors``, and below that the row gather, the six distance
    kernels and the fusion.  Works on the solo and the sharded engine
    (whose ``query_with_vectors`` is the scatter-gather).
    """
    engine = system.engine
    store, names = engine.store, list(engine.config.features)
    weights = FeatureWeights(engine.config.weights_dict())
    n_total = len(store)
    range_ratio: List[float] = []
    ann_ratio: List[float] = []
    mb_scanned: List[float] = []
    reply_mb: List[float] = []
    merge_ms: List[float] = []
    untraced_ms: List[float] = []
    for rid, query in enumerate(queries):
        image = query.image
        def bare() -> None:
            t0 = time.perf_counter()
            engine.query_frame(image, top_k=plan.TOP_K)
            untraced_ms.append((time.perf_counter() - t0) * 1000.0)

        # the same call bare and under a span, alternating which goes first
        # (the second of a pair runs warm): the pair is the tracing overhead
        if rid % 2 == 0:
            bare()
        with tracer.span("query", request_id=rid):
            with tracer.span("core.search.frame"):
                engine.query_frame(image, top_k=plan.TOP_K)
            if rid % 2 == 1:
                bare()
            with tracer.span("replay"):
                with tracer.span("indexing.range.prune"):
                    ids = sorted(engine.index.candidates(image))
                range_ratio.append(len(ids) / n_total)
                vectors = {}
                for name in names:
                    with tracer.span(f"features.extract.{name}"):
                        vectors[name] = engine.extractors[name].extract(image)
                if engine.ann is not None:
                    with tracer.span("indexing.ann.probe"):
                        probed = set(engine.ann.probe(vectors, engine.config.ann_nprobe))
                        ids = [fid for fid in ids if fid in probed]
                    ann_ratio.append(len(ids) / n_total)
                with tracer.span("core.search.vectors"):
                    results = engine.query_with_vectors(
                        vectors, top_k=plan.TOP_K, candidate_ids=ids
                    )
                sharded = (results.explain or {}).get("sharded", {})
                if "merge_ms" in sharded:  # absent when no candidate survived
                    merge_ms.append(float(sharded["merge_ms"]))
                    # computed from shapes: every candidate's raw distance
                    # per feature comes back as a float64
                    reply_mb.append(len(ids) * len(names) * 8 / 1e6)
                with tracer.span("core.search.vectors.stages"):
                    with tracer.span("core.store.gather"):
                        rows = store.matrix_rows(ids)
                    distances, scanned = {}, 0
                    for name in names:  # the engine's order: take rows, score them
                        extractor = engine.extractors[name]
                        with tracer.span("core.store.gather"):
                            gathered = store.prepared_matrix(name, extractor)[rows]
                        scanned += gathered.nbytes
                        with tracer.span(f"features.distance.{name}"):
                            distances[name] = extractor.batch_distance_prepared(
                                vectors[name], gathered
                            )
                    mb_scanned.append(scanned / 1e6)
                    with tracer.span("similarity.fusion"):
                        CombinedScorer(weights).fuse(distances)

    m = tracer.median_ms
    frame, vectors_ms = m("core.search.frame"), m("core.search.vectors")
    gather = tracer.median_per_request_ms("core.store.gather")
    extract = sum(m(f"features.extract.{n}") for n in names)
    distance = sum(m(f"features.distance.{n}") for n in names)
    stages = m("indexing.range.prune") + extract + m("indexing.ann.probe") + vectors_ms
    metrics = {
        **{f"features.extract_ms.{n}": m(f"features.extract.{n}") for n in names},
        **{f"features.distance_ms.{n}": m(f"features.distance.{n}") for n in names},
        "features.distance_mb_scanned": median(mb_scanned),
        "indexing.range.prune_ms": m("indexing.range.prune"),
        "indexing.range.candidate_ratio": median(range_ratio),
        "indexing.ann.probe_ms": m("indexing.ann.probe"),
        "indexing.ann.candidate_ratio": median(ann_ratio) if ann_ratio else 0.0,
        "core.store.gather_ms": gather,
        "core.search.frame_ms": frame,
        "core.search.vectors_ms": vectors_ms,
        # what query_with_vectors spends itself: top-k, hit objects, bookkeeping
        # (the sharded engine scores elsewhere: see sharding.overhead_ms)
        "core.search.self_ms": 0.0 if merge_ms
        else vectors_ms - gather - distance - m("similarity.fusion"),
        "core.search.unattributed_ratio": 1.0 - stages / frame,
        "similarity.fusion_ms": m("similarity.fusion"),
        "bench.trace_overhead_pct": (frame / median(untraced_ms) - 1.0) * 100.0,
    }
    if merge_ms:
        metrics["sharding.merge_ms.reported"] = median(merge_ms)
        metrics["sharding.reply_mb"] = median(reply_mb)
    return metrics


def _prepared_build_ms(system: VideoRetrievalSystem) -> float:
    """All features' prepared stacks, on a store that has none cached."""
    engine = system.engine
    t0 = time.perf_counter()
    for name in engine.config.features:
        engine.store.prepared_matrix(name, engine.extractors[name])
    return (time.perf_counter() - t0) * 1000.0


def _p50_ms(system: VideoRetrievalSystem, queries: Sequence[plan.Query]) -> float:
    return median([workloads.timed_search(system, q.image)[0] for q in queries])


def _snapshot_open_ms(path: str) -> float:
    t0 = time.perf_counter()
    snapshot, _store = open_snapshot_store(path)
    elapsed = (time.perf_counter() - t0) * 1000.0
    snapshot.close()
    return elapsed


# -- ingest, stage by stage --------------------------------------------------------------------


def trace_ingest(tracer: Tracer, videos) -> Dict[str, float]:
    """``add_video`` whole, then its computable stages from outside.

    ``core.ingest.other_ms`` is what remains of ``add_video`` after
    key-frame extraction, the six extractors and the bucket: RVF / PPM
    encoding, SQL, the WAL and the store mirror.
    """
    system = VideoRetrievalSystem.in_memory()
    try:
        engine = system.engine
        other: List[float] = []
        for vid, video in enumerate(videos):
            with tracer.span("core.ingest.add_video", request_id=1000 + vid) as whole:
                system.admin.add_video(video)
            with tracer.span("core.ingest.stages", request_id=1000 + vid) as staged:
                with tracer.span("video.keyframes.extract"):
                    key_frames = engine.keyframe_extractor.extract(list(video.frames))
                with tracer.span("core.ingest.extract"):
                    for _index, frame in key_frames:
                        for name in engine.config.features:
                            engine.extractors[name].extract(frame)
                with tracer.span("core.ingest.bucket"):
                    for _index, frame in key_frames:
                        engine.index.finder.bucket_for_image(frame)
            other.append(
                ((whole["end"] - whole["start"]) - (staged["end"] - staged["start"])) * 1000.0
            )
    finally:
        system.close()
    return {
        "core.ingest.add_video_ms": tracer.median_ms("core.ingest.add_video"),
        "core.ingest.other_ms": median(other),
        "video.keyframes.extract_ms": tracer.median_ms("video.keyframes.extract"),
    }


def _dp_ms(tracer: Tracer, system: VideoRetrievalSystem, clips) -> float:
    """The DP share of one clip query: ``dtw_distance`` of the clip's key
    frames against every stored video, on cost matrices of the real shapes
    (the recurrence's time depends on the shape, not the values)."""
    extractor = system.engine.keyframe_extractor
    store = system.feature_store
    lengths = [len(store.frames_of_video(vid)) for vid in store.video_ids()]
    rng = np.random.default_rng(0)
    for cid, clip in enumerate(clips):
        n_query = len(extractor.extract(list(clip.frames)))
        with tracer.span("similarity.dp", request_id=2000 + cid):
            for n_stored in lengths:
                cost = rng.random((n_query, n_stored))
                dtw_distance(
                    range(n_query), range(n_stored), lambda i, j: float(cost[i, j])
                )
    return tracer.median_ms("similarity.dp")


# -- per workload --------------------------------------------------------------------------------


def trace_replica(ctx: Context) -> Outcome:
    out, tracer = Outcome(), Tracer()
    # scan_10k is the one 10k workload the driver runs, so its traced run
    # also takes the snapshot through the IVF index and the 2 shards
    other_paths = ctx.workload == "scan_10k"
    setup = workloads.setup_replica(ctx, shards=other_paths or ctx.workload == "shard_10k")
    sample = _sample(ctx)
    workloads.check_corpus(out, setup.info)
    metrics: Dict[str, float] = {
        "snapshot.write_s": setup.info["snapshot_write_s"],
        "snapshot.open_ms": _snapshot_open_ms(setup.info["snapshot"]),
        "core.ingest.add_video_ms": median(setup.info["add_video_ms"]),
    }
    system = setup.openers[ctx.workload]()
    try:
        if ctx.workload == "ann_10k":
            metrics["indexing.ann.build_s"] = _ann_build_s(system)
        if ctx.workload != "shard_10k":  # there the workers hold the stacks
            metrics["core.store.prepared_build_ms"] = _prepared_build_ms(system)
        system.search(sample[0].image, top_k=plan.TOP_K)  # lazy state done
        metrics.update(replay_frame_queries(tracer, system, sample))
        out.count(2 * len(sample) + 1)
        if ctx.workload == "shard_10k":
            metrics.update(_trace_sharding(tracer, setup, system, sample))
    finally:
        system.close()
    if other_paths:
        metrics.update(_trace_other_paths(tracer, setup, sample))
        out.count(4 * len(sample))
    out.metrics = metrics
    return _finish(ctx, tracer, out)


def _ann_build_s(system: VideoRetrievalSystem) -> float:
    t0 = time.perf_counter()
    system.engine.ann.build()
    return time.perf_counter() - t0


def _trace_other_paths(
    tracer: Tracer, setup: workloads.ReplicaSetup, sample: Sequence[plan.Query]
) -> Dict[str, float]:
    """The ``indexing.ann.*`` and ``sharding.*`` layers on ``scan_10k``'s
    snapshot and sample.  The query replays run under tracers of their own,
    so none of their spans mixes into ``scan_10k``'s medians."""
    metrics: Dict[str, float] = {}
    system = setup.openers["ann_10k"]()
    try:
        metrics["indexing.ann.build_s"] = _ann_build_s(system)
        replay = replay_frame_queries(Tracer(), system, sample)
        for name in ("indexing.ann.probe_ms", "indexing.ann.candidate_ratio"):
            metrics[name] = replay[name]
    finally:
        system.close()
    system = setup.openers["shard_10k"]()
    try:
        system.search(sample[0].image, top_k=plan.TOP_K)  # the workers are up
        replay = replay_frame_queries(Tracer(), system, sample)
        for name in ("sharding.merge_ms.reported", "sharding.reply_mb"):
            metrics[name] = replay.get(name, 0.0)
        sharding = _trace_sharding(tracer, setup, system, sample)
        del sharding["core.store.prepared_build_ms"]  # scan_10k reports its own
        metrics.update(sharding)
    finally:
        system.close()
    return metrics


def _trace_sharding(
    tracer: Tracer,
    setup: workloads.ReplicaSetup,
    sharded: VideoRetrievalSystem,
    sample: Sequence[plan.Query],
) -> Dict[str, float]:
    """Split scatter-gather into what a worker scores and what it costs to
    ask: a solo engine per shard snapshot does the same scoring in-process."""
    _manifest, shard_paths = read_manifest(setup.info["shard_dir"])
    solos = [
        VideoRetrievalSystem.in_memory(
            SystemConfig(snapshot="require", snapshot_path=path, query_cache_size=0)
        )
        for path in shard_paths
    ]
    exact = setup.openers["scan_10k"]()
    pool = WorkerPool(workers=1)
    try:
        engine = sharded.engine
        built_ms = _prepared_build_ms(solos[0])  # what one worker builds
        worker_ms: List[float] = []
        for rid, query in enumerate(sample):
            ids = sorted(engine.index.candidates(query.image))
            vectors = {n: engine.extractors[n].extract(query.image) for n in FEATURES}
            with tracer.span("sharding.scatter_gather", request_id=3000 + rid):
                engine.query_with_vectors(vectors, top_k=plan.TOP_K, candidate_ids=ids)
            slowest = 0.0
            for solo in solos:
                own = [fid for fid in ids if fid in solo.feature_store]
                with tracer.span("sharding.worker_score", request_id=3000 + rid) as span:
                    solo.engine.query_with_vectors(
                        vectors, top_k=plan.TOP_K, candidate_ids=own
                    )
                slowest = max(slowest, (span["end"] - span["start"]) * 1000.0)
            worker_ms.append(slowest)
        pool.submit(_noop).result()  # spawns the worker
        for _ in range(len(sample)):
            with tracer.span("runtime.pool.roundtrip"):
                pool.submit(_noop).result()
        scatter = tracer.median_ms("sharding.scatter_gather")
        return {
            "core.store.prepared_build_ms": built_ms,
            "sharding.scatter_gather_ms": scatter,
            "sharding.worker_score_ms": median(worker_ms),
            "sharding.overhead_ms": scatter - median(worker_ms),
            # base: the unsharded engine on the same snapshot and queries
            "sharding.speedup_vs_solo": _p50_ms(exact, sample) / _p50_ms(sharded, sample),
            "runtime.pool.roundtrip_ms": tracer.median_ms("runtime.pool.roundtrip"),
        }
    finally:
        pool.close()
        exact.close()
        for solo in solos:
            solo.close()


def trace_churn(ctx: Context) -> Outcome:
    out, tracer = Outcome(), Tracer()
    scale, inputs = ctx.scale, ctx.inputs
    sample = _sample(ctx)
    bulk = plan.corpus_videos("churn_bulk", scale)
    cycle_videos = [inputs.churn_video(j, scale.churn_cycle_shots) for j in range(3)]
    clips = inputs.clips(2 * plan.CHURN_CLIPS_PER_CYCLE)
    path = os.path.join(ctx.work_dir, corpus.LIBRARY_NAME)
    metrics = trace_ingest(tracer, cycle_videos)
    # cache off, so a replayed stage is never a cached answer
    system = VideoRetrievalSystem.open(path, SystemConfig(query_cache_size=0))
    try:
        for video in bulk:
            system.admin.add_video(video)
        # a write invalidated every prepared stack: the next read rebuilds them
        metrics["core.store.prepared_build_ms"] = _prepared_build_ms(system)
        metrics.update(replay_frame_queries(tracer, system, sample))
        out.count(len(bulk) + 2 * len(sample))
        metrics["similarity.dp_ms"] = _dp_ms(tracer, system, clips)
        t0 = time.perf_counter()
        system.admin.checkpoint()
        metrics["core.snapshots.checkpoint_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        system.write_snapshot()
        metrics["snapshot.write_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        FeatureStore().rebuild_from_db(system.db, list(system.config.features))
        metrics["db.rebuild_s"] = time.perf_counter() - t0
    finally:
        system.close()
    metrics["snapshot.open_ms"] = _snapshot_open_ms(path + ".snap")
    out.metrics = metrics
    return _finish(ctx, tracer, out)


def trace_serve(ctx: Context) -> Outcome:
    out, tracer = Outcome(), Tracer()
    inputs = ctx.inputs
    info = workloads.build_corpus(ctx, "real")
    library = info["library"]
    sample = _sample(ctx)
    bodies = workloads.bodies_of(sample)
    rung_s = ctx.scale.ladder_rung_s
    workloads.check_corpus(out, info)
    metrics: Dict[str, float] = {
        "core.snapshots.checkpoint_s": info["checkpoint_s"],
        "snapshot.open_ms": _snapshot_open_ms(library + ".snap"),
    }

    # through the front door: one connection, then the open-loop ladder with
    # the hot mix (ascending, stopping after the first rung that fails), then
    # what the server says about itself
    with loadgen.ServerProcess(library) as server:
        server.start()
        server.first_answer(bodies[0])
        http = loadgen.closed_loop(server.port, bodies, 1)
        out.count(http.sent, http.failed)
        rungs: List[loadgen.RungVerdict] = []
        lateness_ms: List[float] = []
        for k, qps in enumerate((plan.LADDER_REFERENCE_QPS,) + plan.LADDER_QPS):
            mixed = workloads.mixed_requests(
                inputs, workloads.RUNG_STREAM + k, plan.rung_requests(qps, rung_s)
            )
            rung = loadgen.open_loop(server.port, workloads.bodies_of(mixed), qps)
            rungs.append(loadgen.judge_rung(qps, rung))
            if not rungs[-1].passed:
                break  # rungs above the knee only locate it: not counted
            out.count(rung.sent, rung.failed)
            if not lateness_ms:
                lateness_ms = [s.lateness_ms for s in rung.samples]
        scraped = _scrape(server.get("/metrics").decode())
    passing = [r.rate_qps for r in rungs if r.passed]
    metrics["serving.max_rate_under_slo_qps"] = max(passing, default=0.0)
    out.details["ladder"] = [asdict(r) for r in rungs]
    out.details["ladder_interior"] = bool(passing) and not rungs[-1].passed
    if not rungs[0].passed:
        out.problems.append(f"the {plan.LADDER_REFERENCE_QPS} qps reference rung failed")
    metrics["serving.generator_lateness_ms"] = median(lateness_ms) if lateness_ms else 0.0
    metrics["serving.batch_size_mean.reported"] = _ratio(
        scraped, "repro_serving_batch_size_sum", "repro_serving_batch_size_count"
    )
    metrics["serving.queue_wait_ms.reported"] = 1000.0 * _ratio(
        scraped, "repro_serving_queue_wait_seconds_sum", "repro_serving_queue_wait_seconds_count"
    )
    metrics["serving.shed_total.reported"] = scraped.get("repro_serving_shed_total", 0.0)
    metrics["serving.degraded_total.reported"] = scraped.get(
        "repro_serving_degraded_total", 0.0
    )
    hits = scraped.get('repro_cache_requests_total{result="hit"}', 0.0)
    misses = scraped.get('repro_cache_requests_total{result="miss"}', 0.0)
    metrics["core.cache.hit_ratio.reported"] = hits / (hits + misses) if hits + misses else 0.0

    # the same library and queries without the front door
    system = VideoRetrievalSystem.open(library)
    try:
        metrics["core.store.prepared_build_ms"] = _prepared_build_ms(system)
        in_process = _p50_ms(system, sample)
        metrics["serving.http_overhead_ms"] = median(http.latencies_ms()) - in_process
        hit_ms = []
        for query in sample:  # each was just asked: a hit
            hit_ms.append(workloads.timed_search(system, query.image)[0])
        metrics["core.cache.hit_ms"] = median(hit_ms)
        results = system.search(sample[0].image, top_k=plan.TOP_K)
        for body in bodies:
            with tracer.span("web.parse"):
                parse_search_request(body, {"top_k": str(plan.TOP_K)})
            with tracer.span("web.serialize"):
                json.dumps(search_payload(results, False)).encode()
        metrics["web.parse_ms"] = tracer.median_ms("web.parse")
        metrics["web.serialize_ms"] = tracer.median_ms("web.serialize")
    finally:
        system.close()

    # stage by stage, cache off so a replayed stage is never a cached answer
    uncached = SystemConfig(query_cache_size=0)
    system = VideoRetrievalSystem.open(library, uncached)
    quiet = VideoRetrievalSystem.open(library, uncached.with_(obs_enabled=False))
    try:
        metrics.update(replay_frame_queries(tracer, system, sample))
        metrics["obs.overhead_pct"] = _obs_overhead_pct(system, quiet, sample)
        out.count(4 * len(sample))
    finally:
        quiet.close()
        system.close()
    metrics.update(
        trace_ingest(tracer, [inputs.churn_video(j, ctx.scale.real_shots) for j in range(3)])
    )
    out.metrics = metrics
    return _finish(ctx, tracer, out)


def _obs_overhead_pct(
    observed: VideoRetrievalSystem, quiet: VideoRetrievalSystem, sample: Sequence[plan.Query]
) -> float:
    """Interleaved pairs on the same queries, alternating which goes first."""
    on_ms: List[float] = []
    off_ms: List[float] = []
    for i, query in enumerate(sample):
        pair = [(observed, on_ms), (quiet, off_ms)]
        for system, sink in pair if i % 2 == 0 else reversed(pair):
            sink.append(workloads.timed_search(system, query.image)[0])
    return (median(on_ms) / median(off_ms) - 1.0) * 100.0


def _scrape(text: str) -> Dict[str, float]:
    """Prometheus text -> {``name{labels}``: value}."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def _ratio(values: Dict[str, float], numerator: str, denominator: str) -> float:
    return values.get(numerator, 0.0) / values[denominator] if values.get(denominator) else 0.0


TRACE = {
    "serve_1k": trace_serve,
    "library_churn": trace_churn,
    "scan_10k": trace_replica,
    "ann_10k": trace_replica,
    "shard_10k": trace_replica,
}
