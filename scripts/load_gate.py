#!/usr/bin/env python
"""Load gate: the HTTP server meets its latency SLO and sheds cleanly
under overload.

Three phases, all over real sockets with concurrent keep-alive clients:

- **solo SLO** -- a server over the single-store engine takes a
  mixed query stream (varying top_k / feature subsets, query cache off)
  from ``--clients`` concurrent clients; every response must be 200 and
  client-observed p95 latency must stay under the SLO.
- **sharded SLO** -- the same drill against a coordinator over
  ``--shards`` snapshot-backed shard workers (one scatter per shard per
  dispatched batch).
- **overload** -- a server with a deliberately tiny queue
  (``serving_queue_limit=4``) takes a saturating burst from twelve
  clients: every response must be 200 or 429 (never a 5xx, never a
  hang), every 429 must carry Retry-After, and the server's
  ``repro_serving_shed_total`` counter must equal the client-observed
  rejection count exactly.

The SLO bar comes from ``--p95-ms`` (env ``LOAD_GATE_P95_MS`` overrides
the default) so slow CI runners can be accommodated without editing the
workflow.  Artifacts land in ``--artifact-dir``: the run report, a
client-side latency histogram per phase, and a final /metrics scrape.

Usage (CI and ``scripts/check.sh``)::

    PYTHONPATH=src python scripts/load_gate.py --artifact-dir load-gate
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

import numpy as np

_FEATURE_MIXES = ("sch", "sch,glcm", "sch,glcm,gabor", "")


def _build_system(videos_per_category: int, n_shots: int, **config_overrides):
    from repro.core.config import SystemConfig
    from repro.core.system import VideoRetrievalSystem
    from repro.video.generator import make_corpus

    corpus = make_corpus(
        videos_per_category=videos_per_category,
        seed=2013,
        width=64,
        height=48,
        n_shots=n_shots,
        frames_per_shot=3,
    )
    system = VideoRetrievalSystem.in_memory(
        SystemConfig(**config_overrides)
    )
    for video in corpus:
        system.admin.add_video(video)
    return system


def _client_drill(netloc: str, body: bytes, n_requests: int, worker_id: int):
    """One keep-alive client: mixed queries, per-request latencies."""
    import http.client

    conn = http.client.HTTPConnection(netloc, timeout=60)
    outcomes = []
    try:
        for i in range(n_requests):
            mix = _FEATURE_MIXES[(worker_id + i) % len(_FEATURE_MIXES)]
            top_k = 5 + (worker_id + i) % 20
            path = f"/search?top_k={top_k}"
            if mix:
                path += f"&features={mix}"
            t0 = time.perf_counter()
            conn.request("POST", path, body=body)
            response = conn.getresponse()
            response.read()
            latency = time.perf_counter() - t0
            retry_after = response.getheader("Retry-After")
            outcomes.append((response.status, latency, retry_after))
    finally:
        conn.close()
    return outcomes


def _run_phase(server, body, clients: int, per_client: int):
    base = server.start_in_thread()
    netloc = base.split("//", 1)[1]
    results = [None] * clients
    threads = [
        threading.Thread(
            target=lambda i=i: results.__setitem__(
                i, _client_drill(netloc, body, per_client, i)
            )
        )
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    flat = [o for worker in results if worker for o in worker]
    return flat, wall, netloc


def _histogram(latencies) -> dict:
    edges_ms = [5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, float("inf")]
    arr = np.asarray(latencies) * 1000.0
    counts, lower = [], 0.0
    for edge in edges_ms:
        counts.append(int(((arr >= lower) & (arr < edge)).sum()))
        lower = edge
    return {
        "unit": "ms",
        "edges": [e if e != float("inf") else "+Inf" for e in edges_ms],
        "counts": counts,
    }


def _latency_stats(latencies) -> dict:
    arr = np.asarray(latencies)
    return {
        "n": int(arr.size),
        "p50_ms": round(float(np.percentile(arr, 50)) * 1000, 2),
        "p95_ms": round(float(np.percentile(arr, 95)) * 1000, 2),
        "max_ms": round(float(arr.max()) * 1000, 2),
        "histogram": _histogram(latencies),
    }


def _scrape(netloc: str, fmt: str = "prometheus"):
    import http.client

    conn = http.client.HTTPConnection(netloc, timeout=30)
    try:
        conn.request("GET", f"/metrics?format={fmt}")
        payload = conn.getresponse().read()
    finally:
        conn.close()
    return payload


def _metric_total(netloc: str, name: str) -> float:
    families = json.loads(_scrape(netloc, "json"))
    family = families.get(name)
    if not family:
        return 0.0
    return sum(s.get("value", s.get("count", 0)) for s in family["samples"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--videos-per-category", type=int, default=3)
    parser.add_argument("--shots", type=int, default=6)
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent keep-alive clients per SLO phase")
    parser.add_argument("--requests-per-client", type=int, default=10)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--p95-ms", type=float,
                        default=float(os.environ.get("LOAD_GATE_P95_MS", "2000")),
                        help="client-observed p95 SLO in ms "
                             "(env LOAD_GATE_P95_MS overrides)")
    parser.add_argument("--artifact-dir", default="load-gate")
    args = parser.parse_args(argv)

    from repro.serving import AsyncCbvrServer
    from repro.sharding import attach_sharded_engine, read_manifest, split_store

    os.makedirs(args.artifact_dir, exist_ok=True)
    report = {"schema": "repro-load-gate/1", "p95_slo_ms": args.p95_ms, "phases": {}}
    failures = []

    # -- phase 1 + 2: latency SLO, solo then sharded --------------------------
    system = _build_system(
        args.videos_per_category, args.shots,
        query_cache_size=0,  # every request does real scoring work
    )
    body = system.any_key_frame().encode("ppm")
    print(f"corpus: {system.n_videos()} videos, {system.n_key_frames()} key frames")

    tmp = tempfile.mkdtemp(prefix="load-gate-")
    shard_dir = os.path.join(tmp, "shards")
    split_store(system.feature_store, shard_dir, args.shards)
    _, shard_paths = read_manifest(shard_dir)

    for phase, prepare in (
        ("solo", lambda: None),
        (f"shards{args.shards}", lambda: attach_sharded_engine(system, shard_paths)),
    ):
        prepare()
        server = AsyncCbvrServer(system)
        try:
            outcomes, wall, netloc = _run_phase(
                server, body, args.clients, args.requests_per_client
            )
            scrape = _scrape(netloc)
        finally:
            server.stop()
        statuses = [s for s, _, _ in outcomes]
        latencies = [lat for _, lat, _ in outcomes]
        stats = _latency_stats(latencies)
        stats["ops_per_sec"] = round(len(outcomes) / wall, 2)
        stats["statuses"] = sorted(set(statuses))
        report["phases"][phase] = stats
        with open(os.path.join(args.artifact_dir, f"metrics-{phase}.prom"), "wb") as fh:
            fh.write(scrape)
        print(f"{phase:10s} {len(outcomes)} requests  p50 {stats['p50_ms']:7.1f}ms  "
              f"p95 {stats['p95_ms']:7.1f}ms  {stats['ops_per_sec']:7.1f} ops/s")
        if any(s != 200 for s in statuses):
            failures.append(f"{phase}: non-200 responses {sorted(set(statuses))}")
        if stats["p95_ms"] > args.p95_ms:
            failures.append(
                f"{phase}: p95 {stats['p95_ms']}ms over the {args.p95_ms}ms SLO"
            )

    engine = system.engine
    system.close()
    if hasattr(engine, "close"):
        engine.close()

    # -- phase 3: overload sheds 429, never 5xx, counters reconcile -----------
    overload_system = _build_system(
        2, 3,
        query_cache_size=0,
        serving_queue_limit=4,
    )
    overload_body = overload_system.any_key_frame().encode("ppm")
    server = AsyncCbvrServer(overload_system)
    try:
        outcomes, wall, netloc = _run_phase(server, overload_body, 12, 4)
        shed_total = _metric_total(netloc, "repro_serving_shed_total")
        scrape = _scrape(netloc)
    finally:
        server.stop()
        overload_system.close()
    statuses = [s for s, _, _ in outcomes]
    rejected = [o for o in outcomes if o[0] == 429]
    missing_retry_after = [o for o in rejected if not o[2] or int(o[2]) < 1]
    stats = {
        "requests": len(outcomes),
        "ok": statuses.count(200),
        "shed": len(rejected),
        "server_shed_total": shed_total,
        "statuses": sorted(set(statuses)),
        "latency": _latency_stats([lat for _, lat, _ in outcomes]),
    }
    report["phases"]["overload"] = stats
    with open(os.path.join(args.artifact_dir, "metrics-overload.prom"), "wb") as fh:
        fh.write(scrape)
    print(f"overload   {len(outcomes)} requests  {stats['ok']} ok  "
          f"{stats['shed']} shed (server counted {shed_total:.0f})")
    if not set(statuses) <= {200, 429}:
        failures.append(f"overload: unexpected statuses {sorted(set(statuses))}")
    if not rejected:
        failures.append("overload: burst never tripped admission control")
    if missing_retry_after:
        failures.append(f"overload: {len(missing_retry_after)} 429s lack Retry-After")
    if shed_total != len(rejected):
        failures.append(
            f"overload: server shed counter {shed_total:.0f} != "
            f"client-observed 429s {len(rejected)}"
        )

    report["passed"] = not failures
    report["failures"] = failures
    with open(os.path.join(args.artifact_dir, "load-gate-report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(tmp, ignore_errors=True)

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("load gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
