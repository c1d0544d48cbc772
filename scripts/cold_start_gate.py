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
- **durable** -- ``VideoRetrievalSystem.open`` on the checkpointed library
  itself, then one query: what ``repro search`` / ``repro serve`` wait for.
  Its open is reported in two stages, **db** (opening the library's
  SQLite file) and **store** (adopting the image), and the process then
  times its **first write** (a rename, one commit).  A copy with the same
  rows and ~8x the BLOB bytes (each video's unused ``STREAM`` column
  filled, then checkpointed) may open at most ``--max-open-growth`` times
  as slowly.  So may the **db** stage and the first write of a copy with
  8x the key-frame rows (``durable-rows``): SQLite reads the pages a
  statement needs, so neither grows with stored media or with rows.
- **identity** -- one ``snapshot=off`` process rebuilds the store from SQL
  and must return the replica's ranking, ids and distances, exactly; so
  must every durable process.  The rows copy serves the library's own
  image: its extra rows are written by a plain SQLite connection's
  ``INSERT ... SELECT``, which logs no commit.

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
from repro.db import Database
from repro.imaging.image import read_image

mode, library, snap, image_path, spawned_at = sys.argv[1:6]
import_seconds = time.time() - float(spawned_at)
query = read_image(image_path)
stages = {}
t0 = time.perf_counter()
if mode == "mmap":
    config = SystemConfig(snapshot="require", snapshot_path=snap,
                          query_cache_size=0)
    system = VideoRetrievalSystem.in_memory(config)
elif mode == "durable":  # VideoRetrievalSystem.open, timed at its one seam
    db = Database.open(library)
    stages["db_seconds"] = time.perf_counter() - t0
    system = VideoRetrievalSystem(db, SystemConfig(query_cache_size=0))
    stages["store_seconds"] = time.perf_counter() - t0 - stages["db_seconds"]
else:
    config = SystemConfig(snapshot="off", query_cache_size=0)
    system = VideoRetrievalSystem.open(library, config)
open_seconds = time.perf_counter() - t0
results = system.search(query, top_k=10)
ready_seconds = time.time() - float(spawned_at)
if mode == "durable":  # the first write after the open: one rename, one commit
    video_id = system.feature_store.video_ids()[0]
    name = system.feature_store.video(video_id).name
    t1 = time.perf_counter()
    system.admin.rename_video(video_id, name)
    stages["first_write_seconds"] = time.perf_counter() - t1
print(json.dumps({
    "mode": mode,
    "served_from": system.snapshots.served_from,
    "key_frames": system.n_key_frames(),
    "import_seconds": import_seconds,
    "open_seconds": open_seconds,
    "ready_seconds": ready_seconds,
    **stages,
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
    system = VideoRetrievalSystem.open(library, SystemConfig())
    for video in corpus:
        system.admin.add_video(video)
    system.admin.checkpoint()  # writes the snapshot, then drops the logged commits
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


def _inflate_blobs(library: str, out: str, factor: int = 8) -> int:
    """A copy of ``library`` with the same rows and ~``factor`` x its BLOB
    bytes: every video's unused ``STREAM`` column filled, then
    checkpointed.  Returns the copy's BLOB bytes."""
    from repro.core.config import SystemConfig
    from repro.core.system import VideoRetrievalSystem

    shutil.copy2(library, out)
    system = VideoRetrievalSystem.open(out, SystemConfig())
    db = system.db
    videos = [row["V_ID"] for row in db.execute("SELECT V_ID FROM VIDEO_STORE").rows]
    blob_bytes = sum(len(row["VIDEO"]) for row in db.execute("SELECT VIDEO FROM VIDEO_STORE").rows)
    blob_bytes += sum(len(row["IMAGE"]) for row in db.execute("SELECT IMAGE FROM KEY_FRAMES").rows)
    stream = bytes((factor - 1) * blob_bytes // len(videos))
    for video_id in videos:
        db.execute("UPDATE VIDEO_STORE SET STREAM = ? WHERE V_ID = ?", (stream, video_id))
    system.close()
    # SQL writes the store does not mirror: the reopen rebuilds it, and the
    # checkpoint stamps a fresh image at the last commit
    system = VideoRetrievalSystem.open(out, SystemConfig())
    system.admin.checkpoint()
    system.close()
    return blob_bytes + len(stream) * len(videos)


def _multiply_rows(library: str, out: str, factor: int = 8) -> int:
    """A copy of ``library`` with ``factor`` x its key-frame rows: every
    row again under new ids, by ``INSERT ... SELECT`` on a plain SQLite
    connection, which logs no commit, so the copy keeps the library's
    commit sequence -- and its image still stamps it.  Returns the copy's
    key-frame rows."""
    import sqlite3

    from repro.core.catalog import FEATURE_COLUMNS

    for suffix in ("", ".snap"):
        shutil.copy2(library + suffix, out + suffix)
    rest = ", ".join(("I_NAME", "IMAGE", "MIN", "MAX", "MAJORREGIONS", "V_ID")
                     + tuple(FEATURE_COLUMNS.values()))
    conn = sqlite3.connect(out)
    with conn:
        ((step, n_rows),) = conn.execute("SELECT MAX(I_ID), COUNT(*) FROM KEY_FRAMES")
        for k in range(1, factor):
            conn.execute(
                f"INSERT INTO KEY_FRAMES (I_ID, {rest}) "
                f"SELECT I_ID + ?, {rest} FROM KEY_FRAMES WHERE I_ID <= ?",
                (k * step, step),
            )
    ((n_rows,),) = conn.execute("SELECT COUNT(*) FROM KEY_FRAMES")
    conn.close()
    return n_rows


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
                        help="limit on open time, expanded / library snapshot, "
                             "blob-heavy / library durable open, and rows-copy / "
                             "library durable db stage and first write")
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

    blobby = os.path.join(tmp, "blobby.rdb")
    n_blob_bytes = _inflate_blobs(library, blobby)
    print(f"blob-heavy copy: {n_blob_bytes / 1e6:.1f} MB of BLOB cells "
          f"(library {os.path.getsize(library) / 1e6:.1f} MB, copy "
          f"{os.path.getsize(blobby) / 1e6:.1f} MB)")

    rowful = os.path.join(tmp, "rowful.rdb")
    n_rows = _multiply_rows(library, rowful)
    print(f"rows copy: {n_rows} key-frame rows ({os.path.getsize(rowful) / 1e6:.1f} MB)")

    runs = {
        "mmap": [],
        "expanded": [],
        "durable": [],
        "durable-blobs": [],
        "durable-rows": [],
        "rebuild": [_cold_run("rebuild", library, snap, query_image)],
    }
    for _ in range(args.runs):
        runs["mmap"].append(_cold_run("mmap", library, snap, query_image))
        runs["expanded"].append(_cold_run("mmap", library, big_snap, query_image))
        runs["durable"].append(_cold_run("durable", library, snap, query_image))
        runs["durable-blobs"].append(_cold_run("durable", blobby, snap, query_image))
        runs["durable-rows"].append(_cold_run("durable", rowful, snap, query_image))
    for name, expect in (("mmap", "mmap"), ("expanded", "mmap"), ("durable", "mmap"),
                         ("durable-blobs", "mmap"), ("durable-rows", "mmap"),
                         ("rebuild", "rebuild")):
        served = {r["served_from"] for r in runs[name]}
        if served != {expect}:
            print(f"FAIL: {name} runs served from {served}, expected {expect}")
            return 1
    same = ("mmap", "rebuild", "durable", "durable-blobs", "durable-rows")
    rankings = {json.dumps(r["ranking"]) for name in same for r in runs[name]}
    if len(rankings) != 1:
        print("FAIL: mmap, rebuild and durable processes returned different rankings")
        return 1

    best = {
        name: {
            "key_frames": rs[0]["key_frames"],
            **{key: min(r[key] for r in rs) for key in rs[0] if key.endswith("_seconds")},
        }
        for name, rs in runs.items()
    }
    ready = best["mmap"]["ready_seconds"]
    growth = best["expanded"]["open_seconds"] / max(1e-9, best["mmap"]["open_seconds"])
    blob_growth = (best["durable-blobs"]["open_seconds"]
                   / max(1e-9, best["durable"]["open_seconds"]))
    rows_growth = (best["durable-rows"]["db_seconds"]
                   / max(1e-9, best["durable"]["db_seconds"]))
    write_growth = (best["durable-rows"]["first_write_seconds"]
                    / max(1e-9, best["durable"]["first_write_seconds"]))
    report = {
        "schema": "repro-cold-start/6",
        "videos_per_category": args.videos_per_category,
        "shots": args.shots,
        "scale_factor": args.scale_factor,
        "runs": runs,
        "best": best,
        "ready_seconds": ready,
        "max_ready_seconds": args.max_ready_seconds,
        "open_growth": round(growth, 2),
        "blob_bytes": n_blob_bytes,
        "blob_open_growth": round(blob_growth, 2),
        "key_frame_rows": n_rows,
        "rows_db_growth": round(rows_growth, 2),
        "rows_first_write_growth": round(write_growth, 2),
        "max_open_growth": args.max_open_growth,
    }
    report_path = os.path.join(args.artifact_dir, "cold-start-report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    shutil.copy2(snap, os.path.join(args.artifact_dir, "library.rdb.snap"))

    for name in runs:
        b = best[name]
        stages = ""
        if "db_seconds" in b:
            stages = (f" (db {b['db_seconds'] * 1000:5.1f} + store "
                      f"{b['store_seconds'] * 1000:5.1f}; first write "
                      f"{b['first_write_seconds'] * 1000:5.1f})")
        print(f"{name:>13}: {b['key_frames']:>6} key frames  import {b['import_seconds'] * 1000:5.0f} ms"
              f"  open {b['open_seconds'] * 1000:7.1f} ms{stages}"
              f"  ready {b['ready_seconds'] * 1000:7.0f} ms")
    print(f"ready (process start -> first answer): {ready * 1000:.0f} ms "
          f"(limit {args.max_ready_seconds * 1000:.0f} ms)")
    print(f"open growth at {args.scale_factor}x the frames: {growth:.2f}x "
          f"(limit {args.max_open_growth:.1f}x)")
    print(f"durable open growth at ~8x the BLOB bytes: {blob_growth:.2f}x "
          f"(limit {args.max_open_growth:.1f}x)")
    print(f"durable db-stage growth at 8x the key-frame rows: {rows_growth:.2f}x "
          f"(limit {args.max_open_growth:.1f}x)")
    print(f"first-write growth at 8x the key-frame rows: {write_growth:.2f}x "
          f"(limit {args.max_open_growth:.1f}x)")
    failed = False
    if ready > args.max_ready_seconds:
        print("FAIL: the replica's first answer takes too long")
        failed = True
    if growth > args.max_open_growth:
        print("FAIL: opening a snapshot grows with its frame count")
        failed = True
    if blob_growth > args.max_open_growth:
        print("FAIL: opening a library grows with its stored media")
        failed = True
    if rows_growth > args.max_open_growth:
        print("FAIL: opening a library's database grows with its rows")
        failed = True
    if write_growth > args.max_open_growth:
        print("FAIL: the first write after an open grows with the library's rows")
        failed = True
    if failed:
        return 1
    print("cold-start gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
