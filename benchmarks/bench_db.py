"""The library database's open and write costs as ``KEY_FRAMES`` grows.

Regenerates the table in docs/performance.md ("Opening a library").  For
each size it builds, seeded, a durable library with the paper's two tables
(``core.catalog.bootstrap``) whose ``KEY_FRAMES`` holds that many rows
shaped like ingest's -- 26 key frames a video, six 240-character feature
strings, a 1 KB image -- then, ``--repeats`` times on the closed library,
times:

- **open**: ``Database.open``;
- **first write** after the open: one ingest-shaped add -- ``MAX(V_ID)``,
  ``MAX(I_ID)``, then the video row and its key-frame rows in one
  transaction (one commit);
- **next write**: a second such add;
- **delete**: one video and its key frames in one transaction.

Medians in ms.  Run::

    PYTHONPATH=src python benchmarks/bench_db.py [--sizes 26000 104000]
"""

from __future__ import annotations

import argparse
import datetime
import os
import statistics
import tempfile
import time

import numpy as np

from repro.core.catalog import FEATURE_COLUMNS, bootstrap
from repro.db import Database, build_insert

SEED = 2012
FRAMES_PER_VIDEO = 26
FEATURES = ("SCH", "GLCM", "GABOR", "TAMURA", "ACC", "NAIVE")
_FRAME_COLUMNS = ("I_ID", "I_NAME", "IMAGE", "MIN", "MAX", "MAJORREGIONS", "V_ID") + FEATURES
_INSERT_FRAME = build_insert("KEY_FRAMES", _FRAME_COLUMNS)
_INSERT_VIDEO = build_insert("VIDEO_STORE", ("V_ID", "V_NAME", "CATEGORY", "VIDEO", "DOSTORE"))
assert set(FEATURES) <= set(FEATURE_COLUMNS.values())


class _Rows:
    """Seeded payloads: 240-character feature strings, a 1 KB image."""

    def __init__(self, seed: int):
        gen = np.random.default_rng(seed)
        self.features = [
            " ".join(f"{v:.8f}" for v in gen.random(24))[:240] for _ in range(64)
        ]
        self.image = gen.integers(0, 256, 1024, dtype=np.uint8).tobytes()
        self.video = gen.integers(0, 256, 2048, dtype=np.uint8).tobytes()

    def video_row(self, video_id: int):
        return (video_id, f"video_{video_id:06d}", "news", self.video, datetime.date(2012, 10, 1))

    def frame_row(self, frame_id: int, video_id: int):
        features = [self.features[(frame_id + k) % 64] for k in range(len(FEATURES))]
        return (frame_id, f"video_{video_id:06d}_f{frame_id:07d}", self.image,
                frame_id % 7, 7 + frame_id % 5, 3, video_id, *features)


def _add(db: Database, rows: _Rows) -> None:
    """One ingest-shaped add: the two id probes, then one transaction."""
    video_id = 1 + (db.execute("SELECT MAX(V_ID) FROM VIDEO_STORE").scalar() or 0)
    frame_id = 1 + (db.execute("SELECT MAX(I_ID) FROM KEY_FRAMES").scalar() or 0)
    with db.transaction():
        db.execute(_INSERT_VIDEO, rows.video_row(video_id))
        for k in range(FRAMES_PER_VIDEO):
            db.execute(_INSERT_FRAME, rows.frame_row(frame_id + k, video_id))


def _delete(db: Database, video_id: int) -> None:
    with db.transaction():
        db.execute("DELETE FROM KEY_FRAMES WHERE V_ID = ?", (video_id,))
        db.execute("DELETE FROM VIDEO_STORE WHERE V_ID = ?", (video_id,))


def build(path: str, n_rows: int, rows: _Rows) -> None:
    """A library whose ``KEY_FRAMES`` holds ``n_rows`` rows (one commit)."""
    db = Database.open(path)
    bootstrap(db)
    with db.transaction():
        for video_id in range(1, n_rows // FRAMES_PER_VIDEO + 1):
            db.execute(_INSERT_VIDEO, rows.video_row(video_id))
            first = (video_id - 1) * FRAMES_PER_VIDEO + 1
            for frame_id in range(first, first + FRAMES_PER_VIDEO):
                db.execute(_INSERT_FRAME, rows.frame_row(frame_id, video_id))
    db.checkpoint()
    db.close()


def measure(path: str, rows: _Rows, repeats: int):
    """Median ms of open, first write, next write and delete."""
    samples = {"open": [], "first write": [], "next write": [], "delete": []}
    for i in range(repeats):
        t0 = time.perf_counter()
        db = Database.open(path)
        t1 = time.perf_counter()
        _add(db, rows)
        t2 = time.perf_counter()
        _add(db, rows)
        t3 = time.perf_counter()
        _delete(db, 1 + i)
        t4 = time.perf_counter()
        db.close()
        for name, (a, b) in zip(samples, ((t0, t1), (t1, t2), (t2, t3), (t3, t4))):
            samples[name].append((b - a) * 1000.0)
    return {name: statistics.median(values) for name, values in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[26000, 104000],
                        help="KEY_FRAMES rows per library")
    parser.add_argument("--repeats", type=int, default=7, help="opens per size")
    parser.add_argument("--dir", default=None, help="where the libraries are built")
    args = parser.parse_args(argv)
    rows = _Rows(SEED)
    print(f"{'KEY_FRAMES rows':>16} {'MB':>6} {'open':>8} {'first write':>12} "
          f"{'next write':>11} {'delete':>8}   (ms, median of {args.repeats})")
    with tempfile.TemporaryDirectory(dir=args.dir) as root:
        for n_rows in args.sizes:
            path = os.path.join(root, f"library-{n_rows}.rdb")
            build(path, n_rows, rows)
            size = os.path.getsize(path) / 1e6
            times = measure(path, rows, args.repeats)
            print(f"{n_rows:>16,} {size:>6.1f} {times['open']:>8.2f} "
                  f"{times['first write']:>12.2f} {times['next write']:>11.2f} "
                  f"{times['delete']:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
