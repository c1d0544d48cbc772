#!/usr/bin/env python
"""CI cold-start gate: what a user waits for, and that it does not grow with N.

Builds a synthetic durable library and checkpoints it (which writes the
``.snap`` mmap snapshot), then measures *fresh processes* -- each one a
subprocess: no warm imports, no page cache of Python objects:

- **ready** -- process start to the first answer of a read replica
  (``in_memory`` + ``snapshot_path`` + ``snapshot=require``): interpreter
  start, imports, mapping the snapshot, one query.  The gate is absolute:
  the best of ``--runs`` must be under ``--max-ready-seconds``.  Each
  process also reports **import** (process start to imports done) and
  **open**, so the report says which stage a slower ``ready`` came from.
- **scale** -- the same replica on a ``--scale-factor`` (10x) larger
  snapshot, the library's own rows resampled in feature space.  Opening
  adopts mmap sections instead of visiting frames, so the *open* (store
  ready to serve, imports excluded) may take at most ``--max-open-growth``
  (3x) as long as on the small one.
- **identity** -- one ``snapshot=off`` process rebuilds the store from SQL
  and must return the replica's ranking, ids and distances, exactly.

The snapshot must pass ``repro snapshot verify``; ``repro snapshot info
--json`` for both sizes and the timing report land in ``--artifact-dir``.

Usage (CI)::

    PYTHONPATH=src python scripts/cold_start_gate.py --artifact-dir cold-start
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

#: child process: open one way, answer one query, report timings + ranking
_CHILD = r"""
import json, sys, time
from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.imaging.image import read_image

mode, library, snap, image_path, spawned_at = sys.argv[1:6]
import_seconds = time.time() - float(spawned_at)
query = read_image(image_path)
t0 = time.perf_counter()
if mode == "mmap":
    config = SystemConfig(snapshot="require", snapshot_path=snap,
                          query_cache_size=0)
    system = VideoRetrievalSystem.in_memory(config)
else:
    config = SystemConfig(snapshot="off", query_cache_size=0)
    system = VideoRetrievalSystem.open(library, config)
open_seconds = time.perf_counter() - t0
results = system.search(query, top_k=10)
ready_seconds = time.time() - float(spawned_at)
print(json.dumps({
    "mode": mode,
    "served_from": system.snapshots.served_from,
    "key_frames": system.n_key_frames(),
    "import_seconds": import_seconds,
    "open_seconds": open_seconds,
    "ready_seconds": ready_seconds,
    "ranking": [[h.frame_id, h.distance] for h in results],
}))
system.close()
"""


def _build_library(library: str, videos_per_category: int, n_shots: int) -> str:
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
    system = VideoRetrievalSystem.open(library, SystemConfig(workers=0))
    for video in corpus:
        system.admin.add_video(video)
    system.admin.checkpoint()  # folds the DB WAL and writes the snapshot
    query_path = library + ".query.ppm"
    system.any_key_frame().save(query_path)
    n_frames = system.n_key_frames()
    system.close()
    print(f"library: {len(corpus)} videos, {n_frames} key frames")
    return query_path


def _expand_snapshot(snap: str, out: str, factor: int) -> int:
    """``factor`` x the frames of ``snap``: its rows resampled with 5 %
    multiplicative noise, ten frames to a synthetic video."""
    import numpy as np

    from repro.core.snapshots import build_snapshot_payload, open_snapshot_store
    from repro.core.store import FeatureColumn, FeatureStore, FrameColumns, VideoInfo
    from repro.snapshot import write_snapshot

    snapshot, source = open_snapshot_store(snap)
    try:
        n = factor * len(source)
        gen = np.random.default_rng(n)
        rows = gen.integers(0, len(source), n)
        columns = source.columns
        video_ids = 1 + np.arange(n) // 10
        big = FeatureStore()
        big.adopt(
            FrameColumns(
                np.arange(1, n + 1),
                video_ids,
                columns.bucket_min[rows],
                columns.bucket_max[rows],
                np.array([f"syn_{i:07d}" for i in range(n)], dtype=object),
            ),
            {int(v): VideoInfo(f"syn_{v:06d}", None) for v in np.unique(video_ids)},
            {
                name: FeatureColumn(
                    np.maximum(
                        column.matrix[rows] * (1.0 + 0.05 * gen.standard_normal((n, 1))), 0.0
                    ),
                    column.tag,
                )
                for name, column in source.feature_columns().items()
            },
            generation=n,
            structure_generation=n,
        )
        write_snapshot(out, *build_snapshot_payload(big))
    finally:
        snapshot.close()
    return n


def _cold_run(mode: str, library: str, snap: str, image: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, library, snap, image, repr(time.time())],
        capture_output=True,
        text=True,
        check=True,
        env=os.environ,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _snapshot_info(snap: str, path: str) -> None:
    info = subprocess.run(
        [sys.executable, "-m", "repro", "snapshot", "info", snap, "--json"],
        capture_output=True, text=True, check=True,
    ).stdout
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(info)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--videos-per-category", type=int, default=8,
                        help="library size knob (5 categories)")
    parser.add_argument("--shots", type=int, default=25,
                        help="shots per video (~1 key frame each)")
    parser.add_argument("--runs", type=int, default=3,
                        help="cold replica processes per size; best time wins")
    parser.add_argument("--max-ready-seconds", type=float, default=0.75,
                        help="limit on process start -> first answer (replica)")
    parser.add_argument("--scale-factor", type=int, default=10,
                        help="how many times larger the expanded snapshot is")
    parser.add_argument("--max-open-growth", type=float, default=3.0,
                        help="limit on open time, expanded / library snapshot")
    parser.add_argument("--artifact-dir", default="cold-start",
                        help="where the snapshot + info JSON + report land")
    args = parser.parse_args(argv)

    os.makedirs(args.artifact_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cold-start-")
    library = os.path.join(tmp, "library.rdb")
    query_image = _build_library(library, args.videos_per_category, args.shots)
    snap = library + ".snap"
    big_snap = os.path.join(tmp, "expanded.snap")
    n_big = _expand_snapshot(snap, big_snap, args.scale_factor)
    print(f"expanded snapshot: {n_big} key frames ({args.scale_factor}x)")

    # the snapshots must be verifiably intact before we time anything
    for path, name in ((snap, "snapshot-info.json"), (big_snap, "snapshot-info-expanded.json")):
        subprocess.run([sys.executable, "-m", "repro", "snapshot", "verify", path], check=True)
        _snapshot_info(path, os.path.join(args.artifact_dir, name))

    runs = {
        "mmap": [],
        "expanded": [],
        "rebuild": [_cold_run("rebuild", library, snap, query_image)],
    }
    for _ in range(args.runs):
        runs["mmap"].append(_cold_run("mmap", library, snap, query_image))
        runs["expanded"].append(_cold_run("mmap", library, big_snap, query_image))
    for name, expect in (("mmap", "mmap"), ("expanded", "mmap"), ("rebuild", "rebuild")):
        served = {r["served_from"] for r in runs[name]}
        if served != {expect}:
            print(f"FAIL: {name} runs served from {served}, expected {expect}")
            return 1
    rankings = {json.dumps(r["ranking"]) for name in ("mmap", "rebuild") for r in runs[name]}
    if len(rankings) != 1:
        print("FAIL: mmap and rebuild processes returned different rankings")
        return 1

    best = {
        name: {
            "key_frames": rs[0]["key_frames"],
            "import_seconds": min(r["import_seconds"] for r in rs),
            "open_seconds": min(r["open_seconds"] for r in rs),
            "ready_seconds": min(r["ready_seconds"] for r in rs),
        }
        for name, rs in runs.items()
    }
    ready = best["mmap"]["ready_seconds"]
    growth = best["expanded"]["open_seconds"] / max(1e-9, best["mmap"]["open_seconds"])
    report = {
        "schema": "repro-cold-start/3",
        "videos_per_category": args.videos_per_category,
        "shots": args.shots,
        "scale_factor": args.scale_factor,
        "runs": runs,
        "best": best,
        "ready_seconds": ready,
        "max_ready_seconds": args.max_ready_seconds,
        "open_growth": round(growth, 2),
        "max_open_growth": args.max_open_growth,
    }
    report_path = os.path.join(args.artifact_dir, "cold-start-report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    shutil.copy2(snap, os.path.join(args.artifact_dir, "library.rdb.snap"))

    for name in ("mmap", "expanded", "rebuild"):
        b = best[name]
        print(f"{name:>9}: {b['key_frames']:>6} key frames  import {b['import_seconds'] * 1000:5.0f} ms"
              f"  open {b['open_seconds'] * 1000:7.1f} ms  ready {b['ready_seconds'] * 1000:7.0f} ms")
    print(f"ready (process start -> first answer): {ready * 1000:.0f} ms "
          f"(limit {args.max_ready_seconds * 1000:.0f} ms)")
    print(f"open growth at {args.scale_factor}x the frames: {growth:.2f}x "
          f"(limit {args.max_open_growth:.1f}x)")
    failed = False
    if ready > args.max_ready_seconds:
        print("FAIL: the replica's first answer takes too long")
        failed = True
    if growth > args.max_open_growth:
        print("FAIL: opening a snapshot grows with its frame count")
        failed = True
    if failed:
        return 1
    print("cold-start gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
