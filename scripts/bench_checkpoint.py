#!/usr/bin/env python
"""Where a library checkpoint's time goes, and whether it keeps its log.

Regenerates the table in docs/performance.md ("Checkpoint").  Each pass
builds a durable library the size of the ``library_churn`` bulk phase
(8 generator videos of 25 shots, 64x48), checkpoints it (the *first*
checkpoint: the log holds every commit, there is no older database
file), runs 3 delete + add cycles and checkpoints again (the *steady*
checkpoint).  Each checkpoint is split into:

- image write: the store's mmap image (``SnapshotManager.write``);
- database file: encoding, writing and fsyncing the new database file;
- old-file release: the rename over the old file and the last close of
  it, where a filesystem frees its blocks;
- log restart: from the last table's LOB cells re-pointed to the end of the
  checkpoint;
- other: the rest (re-pointing LOB cells).

The pass with the fastest total of 3 is reported, per checkpoint.  With
``--check`` one pass runs and the script exits 1 unless the log keeps its
inode and does not lose blocks across a checkpoint, nor across a reopen
and a write: a structural check, no timing bound.

Run it once per tree to compare two commits::

    PYTHONPATH=src python scripts/bench_checkpoint.py [--check]
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time
import weakref
from contextlib import contextmanager
from typing import Dict, Tuple

from repro.core.snapshots import SnapshotManager
from repro.core.system import VideoRetrievalSystem
from repro.db.storage import Storage
from repro.db.table import Table
from repro.video.generator import make_corpus

SEED = 2012
BULK_VIDEOS, CYCLES, SHOTS = 8, 3, 25
PASSES = 3
PARTS = ("image write", "database file", "old-file release", "log restart", "other")


def _videos(n: int, seed: int):
    """``n`` generator videos, categories interleaved."""
    videos = make_corpus(videos_per_category=2, seed=seed, width=64, height=48,
                         n_shots=SHOTS, frames_per_shot=3)
    return (videos[0::2] + videos[1::2])[:n]


class _Clock:
    """Timestamps at the checkpoint's boundaries, taken by wrapping the
    calls that mark them."""

    def __init__(self, db_path: str):
        self.db_path = db_path
        self.marks: Dict[str, float] = {}
        self.release = 0.0

    def _timed(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.release += time.perf_counter() - t0

    @contextmanager
    def installed(self):
        real = (SnapshotManager.write, Storage.write_snapshot, Table.replace_rows, os.replace)
        clock = self

        def write_image(manager):
            t0 = time.perf_counter()
            try:
                return real[0](manager)
            finally:
                clock.marks["image"] = time.perf_counter() - t0

        def write_database(storage, db):
            old = storage._file
            if old is not None and old._close.alive:
                # time the old file's last close, wherever its last locator goes
                _obj, close, args, _kwargs = old._close.detach()
                old._close = weakref.finalize(old, clock._timed, close, *args)
            clock.marks["database_start"] = time.perf_counter()
            try:
                return real[1](storage, db)
            finally:
                clock.marks["database_end"] = time.perf_counter()

        def replace_rows(table, rows):
            try:
                return real[2](table, rows)
            finally:
                clock.marks["repointed"] = time.perf_counter()

        def replace(src, dst):
            if os.fspath(dst) != clock.db_path:
                return real[3](src, dst)
            clock.marks["renamed"] = time.perf_counter()
            return clock._timed(real[3], src, dst)

        SnapshotManager.write, Storage.write_snapshot = write_image, write_database
        Table.replace_rows, os.replace = replace_rows, replace
        try:
            yield self
        finally:
            SnapshotManager.write, Storage.write_snapshot, Table.replace_rows, os.replace = real

    def parts(self, total: float) -> Dict[str, float]:
        m = self.marks
        split = {
            "image write": m.get("image", 0.0),
            "database file": m["renamed"] - m["database_start"],
            "old-file release": self.release,
            "log restart": m["database_end"] - m.get("repointed", m["renamed"]),
        }
        split["other"] = total - sum(split.values())
        return split


def _checkpoint(system: VideoRetrievalSystem) -> Tuple[float, Dict[str, float]]:
    clock = _Clock(system.db.path)
    with clock.installed():
        t0 = time.perf_counter()
        system.admin.checkpoint()
        total = time.perf_counter() - t0
    return total, clock.parts(total)


def _log_state(path: str) -> Tuple[int, int]:
    info = os.stat(path + ".wal")
    return info.st_ino, info.st_blocks


@contextmanager
def _keeps_log(path: str, what: str, problems: Dict[str, str]):
    """Note in ``problems`` when ``what`` replaces the log or frees blocks."""
    before = _log_state(path)
    yield
    after = _log_state(path)
    if after[0] != before[0] or after[1] < before[1]:
        problems[what] = f"{what}: log (inode, blocks) {before} -> {after}"


def _one_pass(root: str, bulk, cycle_videos, problems: Dict[str, str]):
    path = os.path.join(root, "library.rdb")
    system = VideoRetrievalSystem.open(path)
    try:
        ids = [system.admin.add_video(video).video_id for video in bulk]
        with _keeps_log(path, "first checkpoint", problems):
            first = _checkpoint(system)
        for video in cycle_videos:
            system.admin.delete_video(ids.pop(0))
            ids.append(system.admin.add_video(video).video_id)
        with _keeps_log(path, "steady checkpoint", problems):
            steady = _checkpoint(system)
    finally:
        system.close()
    with _keeps_log(path, "reopen + write", problems):
        system = VideoRetrievalSystem.open(path)
        try:
            system.admin.rename_video(ids[0], "reopened")
        finally:
            system.close()
    return {"first": first, "steady": steady}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="one pass; exit 1 if the log is replaced or loses blocks")
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
