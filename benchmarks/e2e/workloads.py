"""The five workloads: set-up, the measured region, and the checks.

Every workload returns an :class:`Outcome` holding **all** end-to-end
metrics (the driver's contract wants each from each workload).  Where a
metric is measured on a given workload is tabled in ``README.md``; in
short, the system under test answers everything it can (frame queries,
clip queries, cold starts), and what it cannot do -- a read replica takes
no writes, the HTTP front door has no clip route -- is measured in-process,
once per round, on a copy of the real library that workload ingested during
set-up (:class:`WriteProbe`).

A run's measured region is one fixed round of operations executed
``plan.rounds(--seconds)`` times from an identical starting state; every
operation's time is the fastest of its rounds, and p50 / p95 are taken
across the operations (``plan.py`` says why).  Throughput is the raw
wall-clock rate of the fastest round.  Nothing here reads a span: the
traced run is in ``layers.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import corpus
import env
import loadgen
import oracle as oracle_mod
import plan
from measure import (
    best_rate,
    child_pids,
    fastest_round,
    mean_precision,
    median,
    overlap_at,
    p95,
    peak_rss_mb,
)
from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.sharding import attach_sharded_engine, sharded_config

#: the JSON payload rounds distances to 6 decimals
HTTP_DISTANCE_TOLERANCE = 1e-6
#: a broken IVF index, not noise: the seed commit measures 0.55-0.77 at
#: 64 cells / 4 probes on held-out queries (the bound on ``recall_at_10``
#: guards the rest)
ANN_RECALL_FLOOR = 0.4

# independent pools of held-out frames (plan.Inputs.frames)
QUERY_STREAM, COLD_STREAM, HOT_STREAM, CLOSED_STREAM = 0, 2, 3, 4
VERIFY_STREAM, WARM_STREAM, PROBE_STREAM, RUNG_STREAM = 5, 6, 7, 10  # rungs use 10, 11, ...


@dataclass
class Context:
    workload: str
    scale_name: str
    seed: int
    seconds: int
    work_dir: str
    #: ``time.perf_counter()`` when the process began: set-up counts from here
    t_start: float
    keyframes: Optional[int] = None

    @property
    def scale(self) -> plan.Scale:
        return plan.SCALES[self.scale_name]

    @property
    def inputs(self) -> plan.Inputs:
        return plan.Inputs(self.seed)

    def setup_seconds(self) -> float:
        """Call when the first measured operation is next."""
        return time.perf_counter() - self.t_start


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: correctness checks that did not hold (empty = correct)
    problems: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)
    verify_s: float = 0.0

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


# -- shared pieces ---------------------------------------------------------------------------


def build_corpus(ctx: Context, kind: str, shards: int = 0) -> Dict[str, object]:
    """Build a corpus in a child process -- the memory of building must not
    count as the memory of serving -- and return what it measured."""
    command = [
        sys.executable, os.path.join(env.BENCH_DIR, "corpus.py"), "build",
        "--kind", kind, "--scale", ctx.scale_name, "--out", ctx.work_dir,
    ]
    if ctx.keyframes and kind == "feat":
        command += ["--keyframes", str(ctx.keyframes)]
    if shards:
        command += ["--shards", str(shards)]
    subprocess.run(command, check=True, timeout=170)
    with open(os.path.join(ctx.work_dir, corpus.INFO_NAME), encoding="utf-8") as fh:
        return json.load(fh)


def fresh_copy(library: str, round_dir: str) -> str:
    """Copy a closed library (database, snapshot, WAL) into an emptied
    ``round_dir``; returns the copy's path."""
    shutil.rmtree(round_dir, ignore_errors=True)
    os.makedirs(round_dir)
    source_dir, name = os.path.split(library)
    for entry in os.listdir(source_dir):
        if entry.startswith(name):
            shutil.copy2(os.path.join(source_dir, entry), round_dir)
    return os.path.join(round_dir, name)


class WriteProbe:
    """The write path (and the clip path) of a workload whose system under
    test has none: a read replica takes no writes, the HTTP front door has
    no clip route.  Once per round, in-process, on a fresh copy of the real
    library that workload's set-up ingested: one ``add_video``, the first
    frame query after it, and ``n_clips`` clip queries -- each the fastest
    of its rounds, like everything else."""

    def __init__(self, ctx: Context, library: str, n_clips: int):
        inputs = ctx.inputs
        self.library = library
        self.round_dir = os.path.join(ctx.work_dir, "probe")
        self.video = inputs.churn_video(0, ctx.scale.churn_cycle_shots)
        self.query = inputs.frames(PROBE_STREAM, 1)[0]
        self.clips = inputs.clips(n_clips)
        self.keyframes = 0
        self.add_s: List[float] = []
        self.post_write_ms: List[float] = []
        self.clip_ms: List[List[float]] = []

    def round(self, out: Outcome) -> None:
        system = VideoRetrievalSystem.open(fresh_copy(self.library, self.round_dir))
        try:
            t0 = time.perf_counter()
            self.keyframes = system.admin.add_video(self.video).n_keyframes
            self.add_s.append(time.perf_counter() - t0)
            self.post_write_ms.append(timed_search(system, self.query.image)[0])
            self.clip_ms.append([_timed_clip(system, clip) for clip in self.clips])
        finally:
            system.close()
        out.count(2 + len(self.clips))

    def metrics(self) -> Dict[str, float]:
        found = {
            "ingest_keyframes_per_s": self.keyframes / min(self.add_s),
            "post_write_query_ms": min(self.post_write_ms),
        }
        if self.clips:
            found["clip_query_p50_ms"] = median(fastest_round(self.clip_ms))
        return found


def check_corpus(out: Outcome, info: Dict[str, object]) -> None:
    out.details["corpus_keyframes"] = info["keyframes"]
    out.details["corpus_pinned"] = info["corpus_pinned"]
    out.details["corpus_digest_ok"] = info["corpus_digest_ok"]


def timed_search(system: VideoRetrievalSystem, image) -> tuple:
    t0 = time.perf_counter()
    results = system.search(image, top_k=plan.TOP_K)
    return (time.perf_counter() - t0) * 1000.0, results


def _timed_clip(system: VideoRetrievalSystem, clip) -> float:
    t0 = time.perf_counter()
    system.search_by_video(clip, top_k=10)
    return (time.perf_counter() - t0) * 1000.0


def _answer(results) -> tuple:
    return results.frame_ids(), [h.distance for h in results.hits]


def _verify_against_oracle(
    out: Outcome,
    reference: oracle_mod.Oracle,
    queries: Sequence[plan.Query],
    answers: Sequence[tuple],
    abs_tolerance: float = 0.0,
) -> float:
    """Check ``answers`` -- (ids, distances) per query -- for identity with
    the oracle; returns the mean top-10 overlap."""
    overlaps = []
    for i, (query, (ids, distances)) in enumerate(zip(queries, answers)):
        want = reference.rank(query.image, plan.TOP_K)
        problem = oracle_mod.mismatch(ids, distances, want, abs_tolerance)
        if problem:
            out.problems.append(f"oracle query {i}: {problem}")
        overlaps.append(overlap_at(10, ids, [h.frame_id for h in want]))
    return sum(overlaps) / len(overlaps)


# -- serve_1k ----------------------------------------------------------------------------


def bodies_of(queries: Sequence[plan.Query]) -> List[bytes]:
    return [q.image.encode("ppm") for q in queries]


def mixed_requests(inputs: plan.Inputs, stream: int, n: int) -> List[plan.Query]:
    """A fixed serve_1k request list: a quarter of the positions repeat one
    of the 16 hot images (the same 16 in every phase), the rest are unique
    frames of pool ``stream``."""
    mix = inputs.hot_mix(stream, n)
    hot = inputs.frames(HOT_STREAM, plan.SERVE_HOT_SET)
    unique = inputs.frames(stream, sum(1 for is_hot, _ in mix if not is_hot))
    return [hot[i] if is_hot else unique[i] for is_hot, i in mix]


def _hits_of(payload: bytes) -> List[dict]:
    return json.loads(payload)["results"]


def run_serve(ctx: Context) -> Outcome:
    out = Outcome()
    inputs, scale = ctx.inputs, ctx.scale
    info = build_corpus(ctx, "real")
    check_corpus(out, info)
    library = info["library"]
    n_rounds = plan.rounds(ctx.seconds, ctx.workload)
    cold_body = bodies_of(inputs.frames(COLD_STREAM, 1))[0]
    warm_bodies = bodies_of(inputs.frames(WARM_STREAM, plan.SERVE_WARMUP_REQUESTS))
    requests = mixed_requests(inputs, CLOSED_STREAM, scale.serve_closed)
    closed_bodies = bodies_of(requests)
    rung_requests = mixed_requests(
        inputs, RUNG_STREAM, plan.rung_requests(plan.LADDER_REFERENCE_QPS, scale.serve_rung_s)
    )
    rung_bodies = bodies_of(rung_requests)
    verify = inputs.frames(VERIFY_STREAM, scale.verify_real)
    probe = WriteProbe(ctx, library, n_clips=plan.CHURN_CLIPS_PER_CYCLE)
    setup_s = ctx.setup_seconds()

    # a round: the write probe (no server is up), then a fresh server (so
    # every round meets the same empty cache), its first answer, warm-up,
    # closed loop, open loop at the reference rate
    cold_ms: List[float] = []
    closed_rates: List[tuple] = []
    rung_ms: List[List[float]] = []
    rungs: List[loadgen.RungVerdict] = []
    server = loadgen.ServerProcess(library)
    with server:
        for r in range(n_rounds):
            probe.round(out)
            t0 = time.perf_counter()
            server.start()
            server.first_answer(cold_body)
            cold_ms.append((time.perf_counter() - t0) * 1000.0)
            loadgen.closed_loop(server.port, warm_bodies)
            closed = loadgen.closed_loop(server.port, closed_bodies)
            closed_rates.append((closed.ok, closed.wall_s))
            rung = loadgen.open_loop(server.port, rung_bodies, plan.LADDER_REFERENCE_QPS)
            rung_ms.append([sample.latency_ms for sample in rung.samples])
            rungs.append(loadgen.judge_rung(plan.LADDER_REFERENCE_QPS, rung))
            out.count(1 + closed.sent + rung.sent, closed.failed + rung.failed)
            if r < n_rounds - 1:
                server.stop()

        t0 = time.perf_counter()
        answers = loadgen.closed_loop(server.port, bodies_of(verify), 1)
        out.count(answers.sent, answers.failed)
        reference = oracle_mod.Oracle(corpus.open_records(library + ".snap"))
        answered = [(q, _hits_of(s.body)) for q, s in zip(verify, answers.samples) if s.ok]
        recall = _verify_against_oracle(
            out, reference, [q for q, _ in answered],
            [
                ([h["frame_id"] for h in hits], [h["distance"] for h in hits])
                for _, hits in answered
            ],
            HTTP_DISTANCE_TOLERANCE,
        )
        out.verify_s = time.perf_counter() - t0
    # the server is reaped; its high-water mark was read just before

    per_request = fastest_round(rung_ms)
    # the last round's answers, each distinct image once (a hot image is one
    # Query object however often it is asked)
    answered_once = {
        id(q): (s, q)
        for s, q in zip(closed.samples + rung.samples, requests + rung_requests)
        if s.ok
    }
    ok_samples = list(answered_once.values())
    out.metrics = {
        "setup_s": setup_s,
        "cold_start_ms": min(cold_ms),
        "query_p50_ms": median(per_request),
        "query_p95_ms": p95(per_request),
        "queries_per_s": best_rate(closed_rates),
        **probe.metrics(),
        "precision_at_20": mean_precision(
            ([h["category"] for h in _hits_of(s.body)] for s, _ in ok_samples),
            (q.category for _, q in ok_samples),
        ),
        "recall_at_10": recall,
        "peak_rss_mb": server.peak_rss_mb,
        "snapshot_bytes_per_keyframe": info["snapshot_bytes"] / info["keyframes"],
    }
    out.details["rounds"] = n_rounds
    out.details["reference_rung_passed"] = any(r.passed for r in rungs)
    out.details["cold_start_samples_ms"] = cold_ms
    return out


# -- library_churn -------------------------------------------------------------------------


def _fresh_starts(path: str, queries: Sequence[plan.Query]) -> List[float]:
    """Per query: open the library, answer it, close -- timed to the answer."""
    cold_ms = []
    for query in queries:
        t0 = time.perf_counter()
        fresh = VideoRetrievalSystem.open(path)
        try:
            fresh.search(query.image, top_k=plan.TOP_K)
            cold_ms.append((time.perf_counter() - t0) * 1000.0)
        finally:
            fresh.close()
    return cold_ms


def run_churn(ctx: Context) -> Outcome:
    out = Outcome()
    inputs, scale = ctx.inputs, ctx.scale
    n_rounds, cycles = plan.rounds(ctx.seconds, ctx.workload), scale.churn_cycles
    per_cycle = plan.CHURN_QUERIES_PER_CYCLE
    clips_per_cycle = plan.CHURN_CLIPS_PER_CYCLE
    bulk = plan.corpus_videos("churn_bulk", scale)
    cycle_videos = [inputs.churn_video(j, scale.churn_cycle_shots) for j in range(cycles)]
    queries = inputs.frames(QUERY_STREAM, cycles * per_cycle)
    clips = inputs.clips(cycles * clips_per_cycle)
    cold_queries = inputs.frames(COLD_STREAM, plan.COLD_STARTS["library_churn"])
    verify = inputs.frames(VERIFY_STREAM, scale.verify_real)

    # A) bulk ingest, once: the library every round starts from a copy of
    template = os.path.join(ctx.work_dir, "template", corpus.LIBRARY_NAME)
    os.makedirs(os.path.dirname(template))
    system = VideoRetrievalSystem.open(template)
    try:
        bulk_ids = [system.admin.add_video(video).video_id for video in bulk]
        out.count(len(bulk))
        out.details.update(
            corpus.verify(
                corpus.manifest_key("churn_bulk", ctx.scale_name),
                corpus.describe(system.feature_store),
            )
        )
        system.admin.checkpoint()
    finally:
        system.close()
    setup_s = ctx.setup_seconds()

    round_dir = os.path.join(ctx.work_dir, "round")
    add_s: List[List[float]] = []
    post_write_ms: List[List[float]] = []
    steady_ms: List[List[float]] = []
    clip_ms: List[List[float]] = []
    cold_ms: List[List[float]] = []
    for r in range(n_rounds):
        last = r == n_rounds - 1
        path = fresh_copy(template, round_dir)
        for row in (add_s, post_write_ms, steady_ms, clip_ms):
            row.append([])
        keyframes: List[int] = []
        hit_categories: List[List[Optional[str]]] = []
        live = list(bulk_ids)
        system = VideoRetrievalSystem.open(path)
        try:
            # B) writes beside reads
            for j, video in enumerate(cycle_videos):
                system.admin.delete_video(live.pop(0))
                t0 = time.perf_counter()
                report = system.admin.add_video(video)
                add_s[r].append(time.perf_counter() - t0)
                keyframes.append(report.n_keyframes)
                live.append(report.video_id)
                for k, query in enumerate(queries[j * per_cycle:(j + 1) * per_cycle]):
                    ms, results = timed_search(system, query.image)
                    (post_write_ms if k == 0 else steady_ms)[r].append(ms)
                    hit_categories.append(results.categories())
                for clip in clips[j * clips_per_cycle:(j + 1) * clips_per_cycle]:
                    clip_ms[r].append(_timed_clip(system, clip))
                out.count(2 + per_cycle + clips_per_cycle)
                if j + 1 in (cycles // 2, cycles):
                    system.admin.checkpoint()
                    out.count(1)
            if last:
                n_keyframes = system.n_key_frames()
                t0 = time.perf_counter()
                store = system.feature_store
                reference = oracle_mod.Oracle([store.get(fid) for fid in store.frame_ids()])
                answers = [_answer(system.search(q.image, top_k=plan.TOP_K)) for q in verify]
                recall = _verify_against_oracle(out, reference, verify, answers)
                out.verify_s = time.perf_counter() - t0
        finally:
            system.close()
        # C) fresh starts on the checkpointed library
        cold_ms.append(_fresh_starts(path, cold_queries))
        out.count(len(cold_queries))

    steady = fastest_round(steady_ms)
    out.metrics = {
        "setup_s": setup_s,
        "cold_start_ms": median(fastest_round(cold_ms)),
        "query_p50_ms": median(steady),
        "query_p95_ms": p95(steady),
        "queries_per_s": best_rate((len(row), sum(row) / 1000.0) for row in steady_ms),
        "clip_query_p50_ms": median(fastest_round(clip_ms)),
        "ingest_keyframes_per_s": median(
            [n / s for n, s in zip(keyframes, fastest_round(add_s))]
        ),
        "post_write_query_ms": median(fastest_round(post_write_ms)),
        "precision_at_20": mean_precision(hit_categories, (q.category for q in queries)),
        "recall_at_10": recall,
        "peak_rss_mb": peak_rss_mb(),
        "snapshot_bytes_per_keyframe": os.path.getsize(path + ".snap") / n_keyframes,
    }
    out.details["rounds"] = n_rounds
    out.details["corpus_keyframes"] = n_keyframes
    out.details["cold_start_samples_ms"] = cold_ms
    return out


# -- scan_10k / ann_10k / shard_10k ----------------------------------------------------------


@dataclass
class ReplicaSetup:
    info: Dict[str, object]
    #: workload name -> builds a fresh system of that kind on the snapshot
    #: (closed by the caller); ``scan_10k`` is the exact, unsharded replica
    openers: Dict[str, Callable[[], VideoRetrievalSystem]]


def setup_replica(ctx: Context, shards: bool) -> ReplicaSetup:
    info = build_corpus(ctx, "feat", plan.N_SHARDS if shards else 0)
    replica = SystemConfig(
        snapshot="require", snapshot_path=info["snapshot"], query_cache_size=0
    )

    def open_exact() -> VideoRetrievalSystem:
        return VideoRetrievalSystem.in_memory(replica)

    def open_ann() -> VideoRetrievalSystem:
        return VideoRetrievalSystem.in_memory(
            replica.with_(
                ann=True, ann_cells=ctx.scale.ann_cells, ann_nprobe=plan.ANN_NPROBE
            )
        )

    def open_sharded() -> VideoRetrievalSystem:
        system = VideoRetrievalSystem.in_memory(
            sharded_config(info["shard_dir"], SystemConfig(query_cache_size=0))
        )
        try:
            attach_sharded_engine(system)
        except Exception:
            system.close()
            raise
        return system

    return ReplicaSetup(
        info, {"scan_10k": open_exact, "ann_10k": open_ann, "shard_10k": open_sharded}
    )


def run_replica(ctx: Context) -> Outcome:
    out = Outcome()
    inputs, scale = ctx.inputs, ctx.scale
    setup = setup_replica(ctx, shards=ctx.workload == "shard_10k")
    open_system = setup.openers[ctx.workload]
    check_corpus(out, setup.info)
    queries = inputs.frames(QUERY_STREAM, scale.queries)
    cold_queries = inputs.frames(COLD_STREAM, plan.COLD_STARTS[ctx.workload])
    clips = inputs.clips(scale.feat_clips)
    n_rounds = plan.rounds(ctx.seconds, ctx.workload)
    probe = WriteProbe(ctx, setup.info["library"], n_clips=0)  # clips: the replica answers them
    setup_s = ctx.setup_seconds()

    # a round: one pass over the queries, with the fresh starts (the first
    # opens the round) and the clip queries spread evenly through it
    # (plan.spread says why)
    restart_before = plan.spread(len(cold_queries), len(queries))
    clip_before = plan.spread(len(clips), len(queries), offset=0.5)
    cold_ms: List[List[float]] = []
    clip_ms: List[List[float]] = []
    latencies: List[List[float]] = []
    system = None
    try:
        for _ in range(n_rounds):
            cold_iter, clip_iter = iter(cold_queries), iter(clips)
            for row in (cold_ms, clip_ms, latencies):
                row.append([])
            answered = []
            for step, query in enumerate(queries):
                if step in restart_before:
                    if system is not None:
                        system.close()
                        system = None
                    t0 = time.perf_counter()
                    system = open_system()
                    system.search(next(cold_iter).image, top_k=plan.TOP_K)
                    cold_ms[-1].append((time.perf_counter() - t0) * 1000.0)
                if step in clip_before:
                    clip_ms[-1].append(_timed_clip(system, next(clip_iter)))
                ms, results = timed_search(system, query.image)
                latencies[-1].append(ms)
                answered.append(results)
            out.count(len(queries) + len(cold_queries) + len(clips))
            probe.round(out)
        rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in child_pids())

        t0 = time.perf_counter()
        answers = [_answer(r) for r in answered]
        n_verify = scale.verify_feat
        reference = oracle_mod.Oracle(corpus.open_records(setup.info["snapshot"]))
        if ctx.workload == "ann_10k":
            recall = _recall_vs_exact(out, setup, reference, queries, answers, scale)
        else:
            recall = _verify_against_oracle(
                out, reference, queries[:n_verify], answers[:n_verify]
            )
        out.verify_s = time.perf_counter() - t0
    finally:
        if system is not None:
            system.close()

    per_query = fastest_round(latencies)
    out.metrics = {
        "setup_s": setup_s,
        "cold_start_ms": median(fastest_round(cold_ms)),
        "query_p50_ms": median(per_query),
        "query_p95_ms": p95(per_query),
        "queries_per_s": best_rate((len(row), sum(row) / 1000.0) for row in latencies),
        "clip_query_p50_ms": median(fastest_round(clip_ms)),
        **probe.metrics(),
        "precision_at_20": mean_precision(
            (r.categories() for r in answered), (q.category for q in queries)
        ),
        "recall_at_10": recall,
        "peak_rss_mb": rss,
        "snapshot_bytes_per_keyframe": setup.info["snapshot_bytes"] / setup.info["keyframes"],
    }
    out.details["cold_start_samples_ms"] = cold_ms
    out.details["rounds"] = n_rounds
    out.details["mean_candidates"] = sum(r.n_candidates for r in answered) / len(answered)
    return out


def _recall_vs_exact(
    out: Outcome,
    setup: ReplicaSetup,
    reference: oracle_mod.Oracle,
    queries: Sequence[plan.Query],
    ann_answers: Sequence[tuple],
    scale: plan.Scale,
) -> float:
    """ANN top-10 overlap with the exact engine, itself held to the oracle."""
    exact = setup.openers["scan_10k"]()
    try:
        exact_answers = [
            _answer(exact.search(q.image, top_k=plan.TOP_K))
            for q in queries[: scale.recall_queries]
        ]
    finally:
        exact.close()
    n_verify = scale.verify_feat
    _verify_against_oracle(out, reference, queries[:n_verify], exact_answers[:n_verify])
    recall = sum(
        overlap_at(10, got[0], want[0]) for got, want in zip(ann_answers, exact_answers)
    ) / len(exact_answers)
    if recall < ANN_RECALL_FLOOR:
        out.problems.append(
            f"ANN recall_at_10 {recall:.3f} is below the {ANN_RECALL_FLOOR} floor"
        )
    return recall


RUN = {
    "serve_1k": run_serve,
    "library_churn": run_churn,
    "scan_10k": run_replica,
    "ann_10k": run_replica,
    "shard_10k": run_replica,
}
