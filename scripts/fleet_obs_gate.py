#!/usr/bin/env python
"""CI fleet-observability gate: distributed traces + shard-labeled metrics.

Builds a synthetic corpus, splits it into ``--shards`` snapshot
partitions, serves queries through the scatter-gather coordinator with
observability ON, and then asserts the whole telemetry contract through
the *web* surface (the same one operators scrape):

- ``GET /metrics`` exposes shard-labeled worker families
  (``repro_worker_queries_total{shard=...}`` and friends) for every
  shard, and each shard's worker query count equals the coordinator's
  own ``repro_shard_queries_total{shard=...,outcome="ok"}`` dispatch
  counter -- the fleet aggregation lost or double-counted nothing.
- ``GET /traces/recent`` returns ONE stitched trace per query whose
  ``search.scatter`` span has exactly one ``shard.score_*`` child per
  shard, every child carrying the root's trace id and the scatter
  span's id as parent.
- ``GET /debug/slow`` captured the queries (the gate runs with a
  microscopic threshold) with their explain payloads attached.

A sample stitched trace and the metrics scrape land in
``--artifact-dir`` for upload, so a broken run can be debugged from the
CI artifacts alone.

Usage (CI)::

    PYTHONPATH=src python scripts/fleet_obs_gate.py --artifact-dir fleet-obs
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile


def _fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def _find_spans(node, name):
    found = []
    if node.get("name") == name:
        found.append(node)
    for child in node.get("children", ()):
        found.extend(_find_spans(child, name))
    return found


def _counter_samples(text: str, family: str):
    """``{shard: {other_label_value: count}}`` for one metric family."""
    pattern = re.compile(
        re.escape(family) + r'\{shard="(\d+)"(?:,\w+="([^"]*)")?\} (\S+)'
    )
    out = {}
    for line in text.splitlines():
        m = pattern.match(line)
        if m:
            out.setdefault(int(m.group(1)), {})[m.group(2)] = float(m.group(3))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--videos-per-category", type=int, default=2,
                        help="corpus size knob (5 categories)")
    parser.add_argument("--shards", type=int, default=4,
                        help="partitions for the scatter-gather engine")
    parser.add_argument("--queries", type=int, default=3,
                        help="distinct sharded queries to run")
    parser.add_argument("--artifact-dir", default="fleet-obs",
                        help="where the sample trace + scrape land")
    args = parser.parse_args(argv)

    from repro.core.config import SystemConfig
    from repro.core.system import VideoRetrievalSystem
    from repro.sharding import attach_sharded_engine, read_manifest, split_store
    from repro.video.generator import make_corpus
    from repro.web.api import CbvrApi

    os.makedirs(args.artifact_dir, exist_ok=True)

    config = SystemConfig(
        query_cache_size=0,  # every query must reach the shards
        obs_slow_query_ms=0.0001,
    )
    system = VideoRetrievalSystem.in_memory(config)
    for video in make_corpus(
        videos_per_category=args.videos_per_category,
        seed=2012, width=64, height=48, n_shots=3, frames_per_shot=3,
    ):
        system.admin.add_video(video)
    print(f"corpus: {system.n_videos()} videos, "
          f"{system.n_key_frames()} key frames, {args.shards} shards")

    tmp = tempfile.mkdtemp(prefix="fleet-obs-")
    split_store(system.feature_store, tmp, args.shards)
    _, shard_paths = read_manifest(tmp)
    attach_sharded_engine(system, shard_paths)
    api = CbvrApi(system)

    try:
        queries = [system.get_key_frame(fid)
                   for fid in system._store.frame_ids()[: args.queries]]
        for image in queries:
            status, _, body = api.handle(
                "POST", "/search", body=image.encode("ppm"),
                query={"explain": "1"},
            )
            if status != 200:
                return _fail(f"/search returned {status}: {body[:200]!r}")
            explain = json.loads(body)["explain"]
            if explain["sharded"]["dispatched"] != args.shards:
                return _fail(f"explain dispatched {explain['sharded']} "
                             f"!= {args.shards} shards")

        # -- stitched traces, through the operator endpoint ----------------
        status, _, body = api.handle("GET", "/traces/recent")
        if status != 200:
            return _fail(f"/traces/recent returned {status}")
        traces = [t for t in json.loads(body)["traces"]
                  if _find_spans(t, "search.scatter")]
        if len(traces) != len(queries):
            return _fail(f"expected {len(queries)} scatter traces, "
                         f"got {len(traces)}")
        for trace in traces:
            (scatter,) = _find_spans(trace, "search.scatter")
            subtrees = [c for c in scatter.get("children", ())
                        if c["name"].startswith("shard.score_")]
            shards_seen = sorted(c["attrs"]["shard"] for c in subtrees)
            if shards_seen != list(range(args.shards)):
                return _fail(f"scatter children cover shards {shards_seen}, "
                             f"want 0..{args.shards - 1}")
            for sub in subtrees:
                if sub.get("trace_id") != trace.get("trace_id"):
                    return _fail(f"shard subtree trace_id {sub.get('trace_id')} "
                                 f"!= root {trace.get('trace_id')}")
                if sub.get("parent_id") != scatter.get("span_id"):
                    return _fail("shard subtree not parented on the scatter span")
        print(f"traces: {len(traces)} stitched, "
              f"{args.shards} shard subtrees each")

        # -- fleet metrics, through the scrape endpoint --------------------
        status, _, body = api.handle("GET", "/metrics")
        if status != 200:
            return _fail(f"/metrics returned {status}")
        scrape = body.decode("utf-8")
        worker = _counter_samples(scrape, "repro_worker_queries_total")
        coord = _counter_samples(scrape, "repro_shard_queries_total")
        if sorted(worker) != list(range(args.shards)):
            return _fail(f"worker families cover shards {sorted(worker)}, "
                         f"want 0..{args.shards - 1}")
        for shard in range(args.shards):
            worker_total = sum(worker.get(shard, {}).values())
            coord_ok = coord.get(shard, {}).get("ok", 0.0)
            if worker_total != coord_ok or coord_ok != float(len(queries)):
                return _fail(
                    f"shard {shard}: worker count {worker_total} vs "
                    f"coordinator ok {coord_ok} vs {len(queries)} queries"
                )
        for family in ("repro_worker_query_seconds_count",
                       "repro_worker_rows_scored_count"):
            if f'{family}{{shard="0"' not in scrape:
                return _fail(f"{family} missing from the scrape")
        print(f"metrics: per-shard worker counts == coordinator dispatches "
              f"== {len(queries)}")

        # -- slow log ------------------------------------------------------
        status, _, body = api.handle("GET", "/debug/slow")
        if status != 200:
            return _fail(f"/debug/slow returned {status}")
        slow = json.loads(body)["queries"]
        if len([q for q in slow if q["kind"] == "frame"]) != len(queries):
            return _fail(f"slow log holds {len(slow)} entries, "
                         f"want {len(queries)} frame queries")
        if any("explain" not in q for q in slow):
            return _fail("slow-log entries are missing explain payloads")
        print(f"slow log: {len(slow)} entries with explain payloads")

        # -- artifacts -----------------------------------------------------
        with open(os.path.join(args.artifact_dir, "sample-trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(traces[0], fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(args.artifact_dir, "metrics-scrape.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(scrape)
    finally:
        system.close()

    print("fleet obs gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
