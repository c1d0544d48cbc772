#!/usr/bin/env python
"""Where a library checkpoint's time goes, and whether it keeps SQLite's -wal.

Regenerates the table in docs/performance.md ("Checkpoint").  Each pass
builds a durable library the size of the ``library_churn`` bulk phase
(8 generator videos of 25 shots, 64x48), checkpoints it (the *first*
checkpoint: the log holds every commit), runs 3 delete + add cycles and
checkpoints again (the *steady* checkpoint).  Each checkpoint is split
into:

- image write: the store's mmap image (``SnapshotManager.write``);
- log fold: one transaction that deletes the ``COMMITS`` rows the image
  holds and moves the log's base (``Database._fold``);
- WAL checkpoint: ``PRAGMA wal_checkpoint(PASSIVE)``, which copies the
  WAL's pages into the database file;
- other: the rest.

The pass with the fastest total of 3 is reported, per checkpoint.  With
``--check`` one pass runs and the script exits 1 if a checkpoint, or the
write after it, truncates or replaces the library's ``-wal`` (its inode
changes, or it loses bytes or blocks): releasing a file's blocks costs
tens of ms per MB on a disk that discards them.  A structural check, no
timing bound.

Run it once per tree to compare two commits::

    PYTHONPATH=src python scripts/bench_checkpoint.py [--check]
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Tuple

from repro.core.snapshots import SnapshotManager
from repro.core.system import VideoRetrievalSystem
from repro.db import Database
from repro.video.generator import make_corpus

SEED = 2012
BULK_VIDEOS, CYCLES, SHOTS = 8, 3, 25
PASSES = 3
PARTS = ("image write", "log fold", "WAL checkpoint", "other")


def _videos(n: int, seed: int):
    """``n`` generator videos, categories interleaved."""
    videos = make_corpus(videos_per_category=2, seed=seed, width=64, height=48,
                         n_shots=SHOTS, frames_per_shot=3)
    return (videos[0::2] + videos[1::2])[:n]


class _Clock:
    """Timestamps at the checkpoint's boundaries, taken by wrapping the
    calls that mark them."""

    def __init__(self):
        self.marks: Dict[str, float] = {}

    @contextmanager
    def installed(self):
        real = (SnapshotManager.write, Database._fold)
        clock = self

        def write_image(manager):
            t0 = time.perf_counter()
            try:
                return real[0](manager)
            finally:
                clock.marks["image"] = time.perf_counter() - t0

        def fold(db, upto):
            clock.marks["fold_start"] = time.perf_counter()
            try:
                return real[1](db, upto)
            finally:
                clock.marks["fold_end"] = time.perf_counter()

        SnapshotManager.write, Database._fold = write_image, fold
        try:
            yield self
        finally:
            SnapshotManager.write, Database._fold = real

    def parts(self, total: float, end: float) -> Dict[str, float]:
        m = self.marks
        split = {
            "image write": m.get("image", 0.0),
            "log fold": m["fold_end"] - m["fold_start"],
            "WAL checkpoint": end - m["fold_end"],
        }
        split["other"] = total - sum(split.values())
        return split


def _checkpoint(system: VideoRetrievalSystem) -> Tuple[float, Dict[str, float]]:
    clock = _Clock()
    with clock.installed():
        t0 = time.perf_counter()
        system.admin.checkpoint()
        end = time.perf_counter()
    return end - t0, clock.parts(end - t0, end)


def _wal_state(path: str) -> Tuple[int, int, int]:
    info = os.stat(path + "-wal")
    return info.st_ino, info.st_size, info.st_blocks


@contextmanager
def _keeps_wal(path: str, what: str, problems: Dict[str, str]):
    """Note in ``problems`` when ``what`` replaces or truncates the -wal."""
    before = _wal_state(path)
    yield
    after = _wal_state(path)
    if after[0] != before[0] or after[1] < before[1] or after[2] < before[2]:
        problems[what] = f"{what}: -wal (inode, bytes, blocks) {before} -> {after}"


def _one_pass(root: str, bulk, cycle_videos, problems: Dict[str, str]):
    path = os.path.join(root, "library.rdb")
    system = VideoRetrievalSystem.open(path)
    try:
        ids = [system.admin.add_video(video).video_id for video in bulk]
        with _keeps_wal(path, "first checkpoint", problems):
            first = _checkpoint(system)
        for video in cycle_videos:
            system.admin.delete_video(ids.pop(0))
            ids.append(system.admin.add_video(video).video_id)
        with _keeps_wal(path, "steady checkpoint", problems):
            steady = _checkpoint(system)
        with _keeps_wal(path, "write after a checkpoint", problems):
            system.admin.rename_video(ids[0], "renamed")
    finally:
        system.close()
    return {"first": first, "steady": steady}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="one pass; exit 1 if the -wal is replaced or truncated")
    args = parser.parse_args(argv)
    passes = 1 if args.check else PASSES
    bulk = _videos(BULK_VIDEOS, SEED)
    cycle_videos = _videos(CYCLES, SEED + 1)
    problems: Dict[str, str] = {}
    best: Dict[str, Tuple[float, Dict[str, float]]] = {}
    for _ in range(passes):
        root = tempfile.mkdtemp(prefix="bench-checkpoint-")
        try:
            for kind, (total, parts) in _one_pass(root, bulk, cycle_videos, problems).items():
                if kind not in best or total < best[kind][0]:
                    best[kind] = (total, parts)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    print(f"{BULK_VIDEOS} videos of {SHOTS} shots, {CYCLES} delete + add cycles; "
          f"fastest of {passes}, ms")
    width = max(map(len, PARTS))
    print(f"{'':<{width}}  {'first':>8}  {'steady':>8}")
    for part in PARTS + ("total",):
        row = [best[kind][0] if part == "total" else best[kind][1][part]
               for kind in ("first", "steady")]
        print(f"{part:<{width}}  {row[0] * 1000:8.1f}  {row[1] * 1000:8.1f}")
    for problem in problems.values():
        print(f"FAIL {problem}")
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
