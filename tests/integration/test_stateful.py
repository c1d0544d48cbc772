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
  and faults -- a ``db.execute`` failure inside one write, an extractor
  failure inside one query -- and checks that the SQL tables, the store
  and the range index agree (the store again bitwise equal to a rebuild,
  a reopen served from the image whenever the database log still reaches
  it).  It is also the one place where the serving configurations are
  held to one oracle: after every step a fixed probe set is answered by
  the scalar rankings of ``tests/core/clip_reference.py`` and, bit for
  bit, by the query cache, one and two scoring lanes, a micro-batch, a
  reopened system and a read replica.  Shards and the IVF index keep
  their own suites.

This is the class of bug (partial ingest, stale index entries, a matrix
row left behind by a delete, a cached answer outliving a rename) that
single-scenario tests miss.
"""

import contextlib
import hashlib
import os
import shutil
import tempfile
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.core.search as search
from repro.core.config import SystemConfig
from repro.core.search import QueryRequest, SearchEngine
from repro.core.snapshots import (
    SnapshotRequiredError,
    build_snapshot_payload,
    open_snapshot_store,
)
from repro.core.store import FeatureStore, FrameRecord
from repro.core.system import VideoRetrievalSystem
from repro.features.base import FeatureVector, get_extractor
from repro.imaging.image import Image
from repro.indexing.rangefinder import Bucket, RangeFinder
from repro.indexing.tree import RangeIndex
from repro.resilience import FaultInjected, FaultRegistry
from repro.snapshot import write_snapshot
from tests.core.clip_reference import (
    reference_clip_ranking,
    reference_frame_ranking,
    reference_vector_ranking,
)

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


# -- the system: every serving configuration against one oracle ---------------------

# a tiny fast config: two cheap features, small rescale
_CONFIG = SystemConfig(features=("sch", "naive"), keyframe_base_size=60)
#: a ``top_k`` that ranks every candidate
_ALL = 10_000
#: ``_SPLIT_MIN_WORK`` for one scoring lane always, and for two always
_ONE_LANE, _TWO_LANES = 1 << 62, 0


def _tiny_clip(seed: int):
    """Two-frame clip, 24x20, unique per seed (two key frames)."""
    gen = np.random.default_rng(seed)
    base = gen.integers(0, 256, (20, 24, 3), dtype=np.uint8)
    shifted = np.clip(base.astype(int) + 40, 0, 255).astype(np.uint8)
    return [Image(base), Image(shifted)]


#: frames no ``add_video`` draws (its seeds stop at 10 001), and their vectors
_FRESH = _tiny_clip(20_000)
_FRESH_VECTORS = {name: get_extractor(name).extract(_FRESH[1]) for name in _CONFIG.features}


def _probes(system):
    """The fixed probe set over the live library: a stored key frame and a
    fresh frame with the index on and off, one single-feature query, one
    vector query with unsorted duplicate candidate ids, one clip."""
    probes = {
        f"fresh, index={on}": QueryRequest(image=_FRESH[0], use_index=on, top_k=_ALL)
        for on in (True, False)
    }
    probes["clip"] = QueryRequest(clip=_FRESH, top_k=_ALL)
    ids = system.feature_store.frame_ids()
    if ids:
        stored = system.get_key_frame(ids[len(ids) // 2])
        for on in (True, False):
            probes[f"stored, index={on}"] = QueryRequest(image=stored, use_index=on, top_k=_ALL)
        probes["one feature"] = QueryRequest(
            image=stored, features=["naive"], use_index=True, top_k=_ALL
        )
        probes["vectors"] = QueryRequest(
            query_vectors=_FRESH_VECTORS,
            candidate_ids=[ids[-1], ids[0], ids[len(ids) // 2], ids[0], ids[-1]],
            top_k=_ALL,
        )
    return probes


def _solo(engine, req):
    """``req`` on its own, through its kind's entry point."""
    if req.image is not None:
        return engine.query_frame(
            req.image, features=req.features, top_k=req.top_k, use_index=req.use_index
        )
    if req.clip is not None:
        return engine.query_video(req.clip, top_k=req.top_k)
    return engine.query_with_vectors(
        req.query_vectors, top_k=req.top_k, candidate_ids=req.candidate_ids
    )


def _answer(outcome):
    """Ids, video names and categories, fused and per-feature (or clip)
    distances as ``float.hex``."""
    if isinstance(outcome, Exception):
        raise outcome
    if isinstance(outcome, list):  # a clip's VideoMatch list
        return [(m.video_id, m.video_name, m.category, m.distance.hex()) for m in outcome]
    return outcome.n_candidates, [
        (
            h.frame_id, h.video_id, h.video_name, h.category, h.distance.hex(),
            {n: d.hex() for n, d in h.per_feature.items()},
        )
        for h in outcome.hits
    ]


def _batch_answers(engine, probes):
    """The answers of one ``query_batch`` of every probe."""
    return dict(zip(probes, map(_answer, engine.query_batch(list(probes.values())))))


@contextlib.contextmanager
def _split_at(work):
    """Score on one lane (``_ONE_LANE``) or two (``_TWO_LANES``; one on a
    one-CPU machine, which has no helper lane)."""
    saved, search._SPLIT_MIN_WORK = search._SPLIT_MIN_WORK, work
    try:
        yield
    finally:
        search._SPLIT_MIN_WORK = saved


@contextlib.contextmanager
def _armed(system, spec):
    """``spec``'s fault points armed for one call: the system's registry swapped."""
    policies = system.resilience
    saved, policies.faults = policies.faults, FaultRegistry(spec)
    try:
        yield
    finally:
        policies.faults = saved


def sql_rows(db):
    """Every row of both tables, in id order."""
    return (
        db.execute("SELECT * FROM VIDEO_STORE ORDER BY V_ID").rows,
        db.execute("SELECT * FROM KEY_FRAMES ORDER BY I_ID").rows,
    )


def _assert_matches_oracle(system, engine, probes, outcomes):
    """Ids exact, distances within 1e-9 of ``clip_reference``'s scalar
    rankings; names and categories as SQL holds them."""
    videos = {r["V_ID"]: (r["V_NAME"], r["CATEGORY"]) for r in system.list_videos()}
    frame_video = {
        int(r["I_ID"]): int(r["V_ID"])
        for r in system.db.execute("SELECT I_ID, V_ID FROM KEY_FRAMES").rows
    }
    for name, req in probes.items():
        got = outcomes[name]
        if req.clip is not None:
            want = reference_clip_ranking(engine, req.clip)
            assert [m.video_id for m in got] == [vid for vid, _d in want], name
            for match, (_vid, distance) in zip(got, want):
                assert abs(match.distance - distance) <= 1e-9, name
                assert (match.video_name, match.category) == videos[match.video_id]
            continue
        if req.image is not None:
            want = reference_frame_ranking(
                engine, req.image, req.top_k, req.features, req.use_index
            )
        else:
            want = reference_vector_ranking(
                engine, req.query_vectors, req.candidate_ids, req.top_k
            )
        assert [h.frame_id for h in got.hits] == [fid for fid, _d, _pf in want], name
        for hit, (fid, fused, per_feature) in zip(got.hits, want):
            assert abs(hit.distance - fused) <= 1e-9, name
            assert hit.per_feature.keys() == per_feature.keys()
            for feature, distance in per_feature.items():
                assert abs(hit.per_feature[feature] - distance) <= 1e-9, name
            vid = frame_video[fid]
            assert (hit.video_id, hit.video_name, hit.category) == (vid, *videos[vid])


class SystemConsistency(RuleBasedStateMachine):
    """A durable library driven through its admin API, checkpoints, reopens
    and faults.  After every step the probe set's answers on the reference
    configuration (the writer, query cache off, one scoring lane) match the
    scalar oracle, and every other configuration answers bitwise the same:
    the writer with its cache (a miss, then a hit), one ``query_batch`` of
    every probe scored on two lanes, and a read replica whenever the image
    is reachable.  A reopen answers as the system it replaced did."""

    @initialize(seed=st.integers(0, 10_000), imaged=st.booleans())
    def setup(self, seed, imaged):
        self.tmp = tempfile.mkdtemp(prefix="system-model-")
        self.path = os.path.join(self.tmp, "library.rdb")
        self._open()
        self.live_ids = set()
        self.counter = 0
        self.snapshot_digest = None  # of the .snap file, while nothing may rewrite it
        self.image_seq = None  # the commit the image holds
        self.log_base = 0  # the commit the database log starts after
        self.add_video(seed)  # two videos: a delete leaves one, a second empties it
        self.add_video(seed + 1)
        if imaged:  # every later write then replays into a replica
            self.checkpoint(whole=True)

    def _open(self):
        self.system = VideoRetrievalSystem.open(self.path, _CONFIG)
        self.admin = self.system.login_admin()
        #: the reference configuration: the writer's store and pool, no cache
        self.reference = SearchEngine(
            _CONFIG.with_(query_cache_size=0), self.system._store, self.system._index,
            pool=self.system._pool,
        )
        self.cached_generation = None  # the store generation the cache last answered

    def teardown(self):
        if hasattr(self, "system"):
            self.system.close()
        shutil.rmtree(getattr(self, "tmp", ""), ignore_errors=True)

    def _snapshot_bytes(self):
        with open(self.path + ".snap", "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def _image_reachable(self):
        return self.image_seq is not None and self.image_seq >= self.log_base

    def _victim(self, pick):
        return sorted(self.live_ids)[pick % len(self.live_ids)]

    def _reference_answers(self):
        with _split_at(_ONE_LANE):
            probes = _probes(self.system)
            return {name: _answer(_solo(self.reference, req)) for name, req in probes.items()}

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
        victim = self._victim(pick)
        self.admin.delete_video(victim)
        self.live_ids.discard(victim)

    @rule(pick=st.integers(0, 10_000), seed=st.integers(0, 10_000))
    def replace_some_video(self, pick, seed):
        """A delete, then an add of as many key frames: replacing the last
        video reuses its ids, so neither COUNT nor MAX(I_ID) moves."""
        self.delete_some_video(pick)
        self.add_video(seed)

    @rule(pick=st.integers(0, 10_000))
    def rename_some_video(self, pick):
        if not self.live_ids:
            return
        matrix = self.system._store.feature_matrix("sch")
        self.admin.rename_video(self._victim(pick), f"renamed_{pick}")
        # metadata only: the stacked features are the same memory
        assert np.shares_memory(self.system._store.feature_matrix("sch"), matrix)

    @rule(whole=st.booleans())
    def checkpoint(self, whole):
        """The library's (image, then log), or the database's alone: that
        folds the log without rewriting the image, which falls behind."""
        if whole:
            self.admin.checkpoint()
            self.snapshot_digest = self._snapshot_bytes()
            self.image_seq = self.system.db.commit_seq
        else:
            self.system.db.checkpoint()
        self.log_base = self.system.db.commit_seq

    @rule()
    def reopen(self):
        """From the image + the log's tail when the log still reaches the
        image (the writes that follow must copy, not touch the file), else
        from SQL; either way it answers as the closed system did."""
        store = self.system._store
        generations = (store.generation, store.structure_generation)
        self.system.close()
        self._open()
        expected = "mmap" if self._image_reachable() else "rebuild"
        assert self.system.snapshots.served_from == expected
        store = self.system._store
        if expected == "mmap":
            assert (store.generation, store.structure_generation) == generations
        assert self._reference_answers() == self.answers

    @rule(
        op=st.sampled_from(["add", "delete", "rename"]),
        pick=st.integers(0, 10_000),
        data=st.data(),
    )
    def crash_a_write(self, op, pick, data):
        """``db.execute`` fails on the K-th statement of one write -- before
        its transaction or inside it: the write raises, and the database,
        its log, the store and every answer are as they were."""
        if op == "add":
            frames = _tiny_clip(pick) + _tiny_clip(pick + 1)  # four key frames
            # MAX(V_ID), MAX(I_ID), the video's row, one row per key frame
            n = 3 + len(self.reference.keyframe_extractor.extract(frames))
            write = partial(self.admin.add_video, frames, name="crashed", category="misc")
        elif not self.live_ids:
            return
        elif op == "delete":
            n = 3  # the existence check, then the key frames and the video
            write = partial(self.admin.delete_video, self._victim(pick))
        else:
            n = 1
            write = partial(self.admin.rename_video, self._victim(pick), "crashed")
        k = data.draw(st.integers(1, n), label="K")
        db = self.system.db

        def state():
            with open(self.path + "-wal", "rb") as fh:
                return sql_rows(db), db.commit_seq, self.system._store.generation, fh.read()

        before = state()
        with _armed(self.system, f"db.execute:every={k}"), pytest.raises(FaultInjected):
            write()
        assert state() == before
        assert self._reference_answers() == self.answers

    @rule(name=st.sampled_from(_CONFIG.features))
    def crash_an_extractor(self, name):
        """``extractor.<name>`` fails once in a frame query: the answer is
        marked degraded, is the oracle's over the other features, and is
        not cached."""
        engine = self.system.engine
        ids = self.system._store.frame_ids()
        image = self.system.get_key_frame(ids[0]) if ids else _FRESH[0]
        rest = [n for n in _CONFIG.features if n != name]
        entries = engine.cache_stats()["entries"]
        with _armed(self.system, f"extractor.{name}:once"):
            degraded = engine.query_frame(image, top_k=_ALL - 1)
        assert degraded.degraded_features == [name]
        assert engine.cache_stats()["entries"] == entries
        request = QueryRequest(image=image, features=rest, use_index=True, top_k=_ALL - 1)
        _assert_matches_oracle(self.system, self.reference, {name: request}, {name: degraded})
        with _split_at(_ONE_LANE):
            assert _answer(degraded) == _answer(_solo(self.reference, request))
        assert not engine.query_frame(image, top_k=_ALL - 1).degraded

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
        if self._image_reachable():
            behind = self.system.db.commit_seq - self.image_seq
            assert self.system.snapshots.stats()["commits_behind"] == behind

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
    def every_configuration_answers_as_the_oracle(self):
        if not hasattr(self, "system"):
            return
        probes = _probes(self.system)
        with _split_at(_ONE_LANE):
            outcomes = {name: _solo(self.reference, req) for name, req in probes.items()}
            _assert_matches_oracle(self.system, self.reference, probes, outcomes)
            self.answers = {name: _answer(outcome) for name, outcome in outcomes.items()}
            assert self._cached_answers(probes) == self.answers
            self._check_replica(probes)
        with _split_at(_TWO_LANES):  # and every plan of the batch cut in two
            assert _batch_answers(self.reference, probes) == self.answers

    def _cached_answers(self, probes):
        """The writer's own engine, each probe asked twice: the first is a
        miss whenever the store moved since the cache last answered."""
        engine, generation = self.system.engine, self.system._store.generation
        first_ask = "hit" if self.cached_generation == generation else "miss"
        answers = {}
        for name, req in probes.items():
            first = _solo(engine, req)
            answers[name] = _answer(first)
            if req.clip is None:  # clips are not cached
                second = _solo(engine, req)
                assert (first.explain["cache"], second.explain["cache"]) == (first_ask, "hit")
                assert _answer(second) == answers[name]
        self.cached_generation = generation
        return answers

    def _check_replica(self, probes):
        """An in-memory replica of the image + the log it names is the
        writer -- store and answers -- or refuses to start."""
        config = _CONFIG.with_(snapshot="require", snapshot_path=self.path + ".snap")
        if not self._image_reachable():
            with pytest.raises(SnapshotRequiredError):
                VideoRetrievalSystem.in_memory(config)
            return
        replica = VideoRetrievalSystem.in_memory(config)
        try:
            assert replica.snapshots.served_from == "mmap"
            behind = self.system.db.commit_seq - self.image_seq
            assert replica.snapshots.stats()["commits_behind"] == behind
            assert_same_store(replica._store, self.system._store, self.system.engine.extractors)
            assert _batch_answers(replica.engine, probes) == self.answers
        finally:
            replica.close()


TestSystemConsistency = SystemConsistency.TestCase
TestSystemConsistency.settings = settings(
    max_examples=12, stateful_step_count=14, deadline=None
)
