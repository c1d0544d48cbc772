"""Stateful consistency testing: random operation sequences against a model.

Two hypothesis state machines, one model each:

* :class:`StoreModel` drives :class:`FeatureStore` directly -- adds in any
  id order, deletes, renames, snapshot round trips -- and after every step
  the store (patched in place, compressed, adopted from an mmap, copied on
  first write) must be **bitwise** the store rebuilt from scratch from the
  model's list of records, and the range index the ``Bucket.on_same_path``
  loop over that list.
* :class:`SystemConsistency` drives a durable library through its admin
  API, checkpoints (the whole library's, or the database's alone), reopens
  and read replicas, and checks that the SQL tables, the store and the
  range index agree -- the store again bitwise equal to a rebuild, and a
  reopen served from the image whenever the database log still reaches it.

This is the class of bug (partial ingest, stale index entries, a matrix
row left behind by a delete) that single-scenario tests miss.
"""

import hashlib
import os
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import SystemConfig
from repro.core.snapshots import (
    SnapshotRequiredError,
    build_snapshot_payload,
    open_snapshot_store,
)
from repro.core.store import FeatureStore, FrameRecord
from repro.core.system import VideoRetrievalSystem
from repro.db.errors import DatabaseError
from repro.features.base import FeatureVector, get_extractor
from repro.imaging.image import Image
from repro.indexing.rangefinder import Bucket, RangeFinder
from repro.indexing.tree import RangeIndex
from repro.snapshot import write_snapshot

# -- the comparison both machines share ---------------------------------------------


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_record(a: FrameRecord, b: FrameRecord) -> None:
    assert (a.frame_id, a.video_id, a.video_name, a.frame_name, a.category, a.bucket) == (
        b.frame_id, b.video_id, b.video_name, b.frame_name, b.category, b.bucket
    )
    assert sorted(a.features) == sorted(b.features)  # a snapshot lists them sorted
    for name, vector in b.features.items():
        assert a.features[name].tag == vector.tag
        assert _same_bytes(a.features[name].values, vector.values)


def assert_same_store(live: FeatureStore, rebuilt: FeatureStore, extractors) -> None:
    """Every read the layers above make, bit for bit."""
    assert len(live) == len(rebuilt)
    assert live.frame_ids() == rebuilt.frame_ids()
    assert live.video_ids() == rebuilt.video_ids()
    for fid in rebuilt.frame_ids():
        assert fid in live
        _same_record(live.get(fid), rebuilt.get(fid))
    for vid in rebuilt.video_ids():
        assert live.video(vid) == rebuilt.video(vid)
        mine, theirs = live.frames_of_video(vid), rebuilt.frames_of_video(vid)
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            _same_record(a, b)
    (rows_a, spans_a), (rows_b, spans_b) = live.video_spans(), rebuilt.video_spans()
    assert spans_a == spans_b
    assert (rows_a is None) == (rows_b is None)
    assert rows_a is None or np.array_equal(rows_a, rows_b)
    if len(rebuilt):
        columns = rebuilt.feature_columns()
        assert live.feature_columns().keys() == columns.keys()
        for name, extractor in extractors.items():
            if name not in columns or columns[name].rows is not None:
                continue  # a feature some frame lacks: compared record by record
            assert _same_bytes(live.feature_matrix(name), rebuilt.feature_matrix(name))
            assert _same_bytes(
                live.prepared_matrix(name, extractor),
                rebuilt.prepared_matrix(name, extractor),
            )


def rebuilt_from(records) -> FeatureStore:
    """The model: a fresh store, one ``add`` per record in id order."""
    store = FeatureStore()
    for record in sorted(records, key=lambda r: r.frame_id):
        store.add(record)
    return store


# -- the store against a list of records -----------------------------------------------

#: all 15 buckets of a 3-level range tree
_TREE = [Bucket(0, 255)]
for _bucket in _TREE:
    if _bucket.level < 3:
        _TREE.extend(_bucket.halves())
assert len(_TREE) == 15

#: row-normalised, partly normalised, and scored-as-stored preparations
_DIMS = {"sch": 8, "tamura": 6, "glcm": 4}
_EXTRACTORS = {name: get_extractor(name) for name in _DIMS}


class StoreModel(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.store = FeatureStore()
        self.index = RangeIndex(RangeFinder(), self.store)
        self.records = {}  # frame_id -> FrameRecord, the model
        self.names = {}  # video_id -> current name
        self.tmp = tempfile.mkdtemp(prefix="store-model-")
        self.snapshot = None  # (open Snapshot, its file's digest) once adopted

    def teardown(self):
        if getattr(self, "snapshot", None) is not None:
            self.snapshot[0].close()
        shutil.rmtree(getattr(self, "tmp", ""), ignore_errors=True)

    @rule(
        frame_id=st.integers(1, 60),
        video_id=st.integers(1, 5),
        bucket=st.sampled_from(_TREE),
        seed=st.integers(0, 2**16),
    )
    def add_frame(self, frame_id, video_id, bucket, seed):
        """Any id order: appends, and inserts below the highest id."""
        gen = np.random.default_rng(seed)
        record = FrameRecord(
            frame_id=frame_id,
            video_id=video_id,
            video_name=self.names.setdefault(video_id, f"video_{video_id}"),
            frame_name=f"frame_{frame_id}",
            category="cat" if video_id % 2 else None,
            bucket=bucket,
            features={
                name: FeatureVector(kind=name, values=gen.random(d) + 0.01, tag=name.upper())
                for name, d in _DIMS.items()
            },
        )
        if frame_id in self.records:
            try:
                self.store.add(record)
                raise AssertionError("a duplicate frame id must be refused")
            except KeyError:
                return
        self.store.add(record)
        self.records[frame_id] = record

    @rule(pick=st.integers(0, 10), where=st.sampled_from(["first", "middle", "last", "any"]))
    def remove_video(self, pick, where):
        videos = sorted({r.video_id for r in self.records.values()})
        if not videos:
            assert self.store.remove_video(pick + 100) == []
            return
        victim = {
            "first": videos[0], "middle": videos[len(videos) // 2], "last": videos[-1],
        }.get(where, videos[pick % len(videos)])
        gone = sorted(f for f, r in self.records.items() if r.video_id == victim)
        assert sorted(self.store.remove_video(victim)) == gone
        for fid in gone:
            del self.records[fid]
        del self.names[victim]

    @rule(pick=st.integers(0, 10))
    def rename_video(self, pick):
        videos = sorted({r.video_id for r in self.records.values()})
        if not videos:
            return
        victim = videos[pick % len(videos)]
        self.names[victim] = f"renamed_{pick}"
        n = self.store.rename_video(victim, self.names[victim])
        assert n == sum(r.video_id == victim for r in self.records.values())
        for fid, record in self.records.items():
            if record.video_id == victim:
                self.records[fid] = replace(record, video_name=self.names[victim])

    @rule(name=st.sampled_from(sorted(_DIMS)))
    def prepare_one(self, name):
        """Move one feature's prepared watermark, so later writes patch a
        partly prepared store."""
        if self.records:
            self.store.prepared_matrix(name, _EXTRACTORS[name])

    @rule()
    def reopen_from_snapshot(self):
        """Write the snapshot, adopt its mmap: later writes must copy."""
        if self.snapshot is not None:
            self.snapshot[0].close()
        path = os.path.join(self.tmp, "model.snap")
        arrays, meta = build_snapshot_payload(self.store)
        write_snapshot(path, arrays, meta)
        snap, self.store = open_snapshot_store(path)
        self.index = RangeIndex(self.index.finder, self.store)
        with open(path, "rb") as fh:
            self.snapshot = (snap, hashlib.sha256(fh.read()).hexdigest())

    # -- invariants ------------------------------------------------------------

    @invariant()
    def store_equals_rebuild(self):
        if hasattr(self, "store"):
            assert_same_store(self.store, rebuilt_from(self.records.values()), _EXTRACTORS)

    @invariant()
    def index_equals_on_same_path_loop(self):
        if not hasattr(self, "store"):
            return
        assert len(self.index) == len(self.records)
        assert self.index.all_ids() == set(self.records)
        for query in _TREE:
            want = {f for f, r in self.records.items() if r.bucket.on_same_path(query)}
            assert self.index.candidates_for_bucket(query) == want
            rows = self.index.candidate_rows(query)
            assert self.store.ids[rows].tolist() == sorted(want)

    @invariant()
    def snapshot_file_untouched(self):
        """Copy-on-first-write: the adopted file is read, never written."""
        if getattr(self, "snapshot", None) is not None:
            with open(self.snapshot[0].path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == self.snapshot[1]


TestStoreModel = StoreModel.TestCase
TestStoreModel.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)


# -- the system against its own database ------------------------------------------------

# a tiny fast config: two cheap features, small rescale
_CONFIG = SystemConfig(features=("sch", "naive"), keyframe_base_size=60)


def _tiny_clip(seed: int):
    """Two-frame clip, 24x20, unique per seed."""
    gen = np.random.default_rng(seed)
    base = gen.integers(0, 256, (20, 24, 3), dtype=np.uint8)
    shifted = np.clip(base.astype(int) + 40, 0, 255).astype(np.uint8)
    return [Image(base), Image(shifted)]


class SystemConsistency(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.tmp = tempfile.mkdtemp(prefix="system-model-")
        self.path = os.path.join(self.tmp, "library.rdb")
        self.system = VideoRetrievalSystem.open(self.path, _CONFIG)
        self.admin = self.system.login_admin()
        self.live_ids = set()
        self.counter = 0
        self.snapshot_digest = None  # of the .snap file, while nothing may rewrite it
        self.image_seq = None  # the commit the image holds
        self.log_base = 0  # the commit the database log starts after

    def teardown(self):
        if hasattr(self, "system"):
            self.system.close()
        shutil.rmtree(getattr(self, "tmp", ""), ignore_errors=True)

    def _snapshot_bytes(self):
        with open(self.path + ".snap", "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    @rule(seed=st.integers(0, 10_000))
    def add_video(self, seed):
        self.counter += 1
        report = self.admin.add_video(
            _tiny_clip(seed), name=f"clip_{self.counter}", category="misc"
        )
        self.live_ids.add(report.video_id)

    @rule(pick=st.integers(0, 10_000))
    def delete_some_video(self, pick):
        if not self.live_ids:
            return
        victim = sorted(self.live_ids)[pick % len(self.live_ids)]
        self.admin.delete_video(victim)
        self.live_ids.discard(victim)

    @rule(pick=st.integers(0, 10_000))
    def delete_missing_video_fails(self, pick):
        missing = 100_000 + pick
        try:
            self.admin.delete_video(missing)
            raise AssertionError("deleting a missing video must fail")
        except DatabaseError:
            pass

    @rule(pick=st.integers(0, 10_000))
    def rename_some_video(self, pick):
        if not self.live_ids:
            return
        victim = sorted(self.live_ids)[pick % len(self.live_ids)]
        self.admin.rename_video(victim, f"renamed_{pick}")

    @rule()
    def checkpoint(self):
        self.admin.checkpoint()
        self.snapshot_digest = self._snapshot_bytes()
        self.image_seq = self.log_base = self.system.db.commit_seq

    @rule()
    def database_checkpoint(self):
        """Fold the log without rewriting the image: it falls behind."""
        self.system.db.checkpoint()
        self.log_base = self.system.db.commit_seq

    def _image_reachable(self):
        return self.image_seq is not None and self.image_seq >= self.log_base

    @rule()
    def reopen(self):
        """From the image + the log's tail when the log still reaches the
        image (the writes that follow must copy, not touch the file), else
        from SQL."""
        self.system.close()
        self.system = VideoRetrievalSystem.open(self.path, _CONFIG)
        self.admin = self.system.login_admin()
        expected = "mmap" if self._image_reachable() else "rebuild"
        assert self.system.snapshots.served_from == expected

    @rule()
    def read_replica(self):
        """An in-memory replica of the image + the log it names is the
        writer's store, or refuses to start."""
        config = _CONFIG.with_(snapshot="require", snapshot_path=self.path + ".snap")
        if not self._image_reachable():
            with pytest.raises(SnapshotRequiredError):
                VideoRetrievalSystem.in_memory(config)
            return
        replica = VideoRetrievalSystem.in_memory(config)
        try:
            assert replica.snapshots.served_from == "mmap"
            assert_same_store(replica._store, self.system._store, self.system.engine.extractors)
        finally:
            replica.close()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def views_agree(self):
        if not hasattr(self, "system"):
            return
        db_videos = {r["V_ID"] for r in self.system.list_videos()}
        assert db_videos == self.live_ids

        db_frames = {
            int(r["I_ID"]) for r in self.system.db.execute("SELECT I_ID FROM KEY_FRAMES").rows
        }
        store_frames = set(self.system._store.frame_ids())
        index_frames = self.system._index.all_ids()
        assert db_frames == store_frames == index_frames

        db_frame_videos = {
            int(r["V_ID"])
            for r in self.system.db.execute("SELECT V_ID FROM KEY_FRAMES").rows
        }
        assert db_frame_videos <= self.live_ids  # no orphaned key frames

    @invariant()
    def store_equals_sql_rebuild(self):
        if not hasattr(self, "system"):
            return
        rebuilt = FeatureStore()
        rebuilt.rebuild_from_db(self.system.db, list(_CONFIG.features))
        assert_same_store(self.system._store, rebuilt, self.system.engine.extractors)
        for fid in rebuilt.frame_ids():
            assert self.system._index.bucket_of(fid) == rebuilt.get(fid).bucket

    @invariant()
    def snapshot_file_untouched(self):
        if getattr(self, "snapshot_digest", None) is not None:
            assert self._snapshot_bytes() == self.snapshot_digest

    @invariant()
    def search_always_works(self):
        if not hasattr(self, "system") or not self.live_ids:
            return
        query = self.system.any_key_frame()
        results = self.system.search(query, top_k=3, use_index=False)
        assert len(results) >= 1
        assert {h.video_id for h in results} <= self.live_ids


TestSystemConsistency = SystemConsistency.TestCase
TestSystemConsistency.settings = settings(
    max_examples=12, stateful_step_count=14, deadline=None
)
