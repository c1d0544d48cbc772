#!/usr/bin/env python
"""CI scatter-gather gate: 4-shard serving must beat 1-shard serving.

Builds a synthetic corpus large enough that distance scoring dominates
the query, splits it into shard snapshots, and times the same
scoring-only query (precomputed vectors, cache off, full scan) three
ways:

- **unsharded** -- the plain single-store engine (the pre-sharding path;
  recorded for context, not gated).
- **shards1**  -- a coordinator over one shard: the same scatter-gather
  machinery, IPC and merge included, with no parallelism.
- **shardsN**  -- a coordinator over ``--shards`` partitions, each with
  its own persistent snapshot-backed worker process.

The gate fails unless every engine returns a **byte-identical** ranking
(ids *and* distances, checked unconditionally on every run, for the
vector query and for one clip query -- the clip rides the same scatter
path, one plan per key frame) and the N-shard throughput is at least
``--min-speedup`` times the 1-shard throughput.  The ratio against the
unsharded engine is reported beside it, not gated.  ``--min-speedup
auto`` (the CI default) scales the bar with the machine: ``min(3.0,
0.75 * min(shards, cpu_count))`` -- a 4-vCPU CI runner must deliver the
full 3x, while a 1-core box can only be held to correctness plus bounded
overhead.  The run report and the shard manifest land in
``--artifact-dir`` for upload.

Usage (CI)::

    PYTHONPATH=src python scripts/shard_gate.py --artifact-dir shard-gate
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np


def _build_system(videos_per_category: int, n_shots: int):
    from repro.core.config import SystemConfig
    from repro.core.system import VideoRetrievalSystem
    from repro.video.generator import make_corpus

    corpus = make_corpus(
        videos_per_category=videos_per_category,
        seed=2012,
        width=64,
        height=48,
        n_shots=n_shots,
        frames_per_shot=3,
    )
    system = VideoRetrievalSystem.in_memory(SystemConfig())
    for video in corpus:
        system.admin.add_video(video)
    print(f"corpus: {len(corpus)} videos, {system.n_key_frames()} key frames")
    return system


def _timed(fn, repeats: int) -> dict:
    latencies = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        latencies.append(time.perf_counter() - t0)
    arr = np.asarray(latencies)
    p50 = float(np.percentile(arr, 50))
    best = float(arr.min())
    return {
        "repeats": repeats,
        "p50_ms": round(p50 * 1000, 3),
        "best_ms": round(best * 1000, 3),
        "ops_per_sec": round(1.0 / best, 3) if best > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--videos-per-category", type=int, default=8,
                        help="corpus size knob (5 categories)")
    parser.add_argument("--shots", type=int, default=50,
                        help="shots per video (~1 key frame each)")
    parser.add_argument("--shards", type=int, default=4,
                        help="partitions for the parallel engine")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed queries per engine; best time wins")
    parser.add_argument("--min-speedup", default="auto",
                        help="required N-shard-vs-1-shard throughput ratio, "
                             "or 'auto' = min(3.0, 0.75 * min(shards, cpus))")
    parser.add_argument("--artifact-dir", default="shard-gate",
                        help="where the report + shard manifest land")
    args = parser.parse_args(argv)

    ncpu = os.cpu_count() or 1
    if args.min_speedup == "auto":
        min_speedup = min(3.0, 0.75 * min(args.shards, ncpu))
    else:
        min_speedup = float(args.min_speedup)

    from repro.core.search import SearchEngine
    from repro.sharding import MANIFEST_NAME, ShardedSearchEngine, read_manifest, split_store

    os.makedirs(args.artifact_dir, exist_ok=True)
    system = _build_system(args.videos_per_category, args.shots)
    config = system.config.with_(query_cache_size=0)

    # a scoring-only query: vectors precomputed once so every engine does
    # identical per-query work (distances + fusion + top-k), nothing else
    query_image = system.any_key_frame()
    names = list(system.config.features)
    query_vectors = {
        name: system.engine.extractors[name].extract(query_image) for name in names
    }
    top_k = 20

    tmp = tempfile.mkdtemp(prefix="shard-gate-")
    split_store(system.feature_store, os.path.join(tmp, "n"), args.shards)
    split_store(system.feature_store, os.path.join(tmp, "one"), 1)
    _, paths_n = read_manifest(os.path.join(tmp, "n"))
    _, paths_one = read_manifest(os.path.join(tmp, "one"))

    engines = {
        # cache off like the coordinators, or the ratio below times a hit
        "unsharded": SearchEngine(config, system.feature_store, system.engine.index),
        "shards1": ShardedSearchEngine(config, paths_one),
        f"shards{args.shards}": ShardedSearchEngine(config, paths_n),
    }
    gated = f"shards{args.shards}"
    try:
        # correctness first, unconditionally: every engine must produce the
        # same ranking down to the raw distances (this also warms the
        # persistent shard workers before anything is timed)
        clip = system.get_video_frames(1)
        rankings = {
            label: [
                [
                    (h.frame_id, h.distance)
                    for h in eng.query_with_vectors(query_vectors, top_k=top_k)
                ],
                [(m.video_id, m.distance) for m in eng.query_video(clip, top_k=top_k)],
            ]
            for label, eng in engines.items()
        }
        if len({json.dumps(r) for r in rankings.values()}) != 1:
            print("FAIL: engines returned different rankings")
            for label, ranking in rankings.items():
                print(f"  {label}: {[r[:5] for r in ranking]} ...")
            return 1

        timings = {
            label: _timed(
                lambda eng=eng: eng.query_with_vectors(query_vectors, top_k=top_k),
                args.repeats,
            )
            for label, eng in engines.items()
        }
    finally:
        for label in ("shards1", gated):
            engines[label].close()
        system.close()

    speedup, speedup_vs_unsharded = (
        timings[gated]["ops_per_sec"] / max(1e-9, timings[base]["ops_per_sec"])
        for base in ("shards1", "unsharded")
    )
    report = {
        "schema": "repro-shard-gate/1",
        "videos_per_category": args.videos_per_category,
        "shots": args.shots,
        "shards": args.shards,
        "cpu_count": ncpu,
        "rankings_identical": True,
        "timings": timings,
        "speedup_vs_shards1": round(speedup, 2),
        "speedup_vs_unsharded": round(speedup_vs_unsharded, 2),
        "min_speedup": round(min_speedup, 2),
    }
    with open(os.path.join(args.artifact_dir, "shard-gate-report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    shutil.copy2(
        os.path.join(tmp, "n", MANIFEST_NAME),
        os.path.join(args.artifact_dir, MANIFEST_NAME),
    )

    for label, t in timings.items():
        print(f"{label:10s} best {t['best_ms']:8.1f}ms  p50 {t['p50_ms']:8.1f}ms  "
              f"{t['ops_per_sec']:8.1f} ops/s")
    print(f"scatter-gather speedup: {speedup:.2f}x over 1 shard "
          f"(required >= {min_speedup:.2f}x on {ncpu} cpus), "
          f"{speedup_vs_unsharded:.2f}x over the unsharded engine")
    if speedup < min_speedup:
        print("FAIL: sharded serving is not fast enough")
        return 1
    print("shard gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
