"""System-level snapshot serving: byte identity, log tail replay, fallback.

The acceptance bar for the snapshot layer: a process that opens the mmap
snapshot must be indistinguishable -- to the byte -- from one that
rebuilt its store from SQL, across feature matrices, rankings, ANN
probes, and generation counters.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.snapshots import SnapshotRequiredError, open_snapshot_store
from repro.core.system import VideoRetrievalSystem
from repro.db.storage import read_log
from repro.snapshot import Snapshot
from repro.video.generator import VideoSpec, generate_video
from tests.core.clip_reference import reference_frame_ranking
from tests.integration.test_stateful import assert_same_store

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


class _Crash(Exception):
    """A process killed at this point."""


def _sql_rows(db):
    """Every row of both tables, in id order."""
    return (
        db.execute("SELECT * FROM VIDEO_STORE ORDER BY V_ID").rows,
        db.execute("SELECT * FROM KEY_FRAMES ORDER BY I_ID").rows,
    )


def _video(seed, category="news", shots=2):
    return generate_video(
        VideoSpec(category=category, seed=seed, width=64, height=48,
                  n_shots=shots, frames_per_shot=4)
    )


def _ranking(system, query, **kwargs):
    return [
        (h.frame_id, h.distance, tuple(sorted(h.per_feature.items())))
        for h in system.search(query, top_k=8, **kwargs)
    ]


@pytest.fixture()
def library(tmp_path):
    """A durable library with a written snapshot; returns (path, query)."""
    lib = str(tmp_path / "lib.rdb")
    system = VideoRetrievalSystem.open(lib, SystemConfig(workers=1))
    for seed, category in ((11, "news"), (12, "sports"), (13, "cartoon")):
        system.admin.add_video(_video(seed, category))
    system.admin.checkpoint()  # writes lib.rdb.snap
    query = system.any_key_frame()
    system.close()
    assert os.path.exists(lib + ".snap")
    return lib, query


class TestMmapServing:
    def test_open_serves_from_mmap(self, library):
        lib, query = library
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        assert system.snapshots.served_from == "mmap"
        assert len(system.search(query, top_k=5)) >= 1
        system.close()

    def test_feature_matrices_byte_identical_to_rebuild(self, library):
        lib, _ = library
        via_snap = VideoRetrievalSystem.open(lib, SystemConfig())
        via_sql = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert via_snap.snapshots.served_from == "mmap"
        for name in via_snap.config.features:
            a = via_snap._store.feature_matrix(name)
            b = via_sql._store.feature_matrix(name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        via_snap.close()
        via_sql.close()

    def test_rankings_byte_identical_to_rebuild(self, library):
        lib, query = library
        via_snap = VideoRetrievalSystem.open(lib, SystemConfig())
        via_sql = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        for use_index in (True, False):
            assert _ranking(via_snap, query, use_index=use_index) == \
                _ranking(via_sql, query, use_index=use_index)
        via_snap.close()
        via_sql.close()

    def test_generation_counters_restored(self, library):
        lib, _ = library
        via_snap = VideoRetrievalSystem.open(lib, SystemConfig())
        via_sql = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert via_snap._store.generation == via_sql._store.generation
        assert (via_snap._store.structure_generation
                == via_sql._store.structure_generation)
        via_snap.close()
        via_sql.close()

    def test_scalar_path_reads_lazy_features(self, library):
        lib, query = library
        config = SystemConfig(query_cache_size=0)
        via_snap = VideoRetrievalSystem.open(lib, config)
        via_sql = VideoRetrievalSystem.open(lib, config.with_(snapshot="off"))
        assert via_snap.snapshots.served_from == "mmap"
        # the scalar reference pages record.features in off the mmap
        lazy = reference_frame_ranking(via_snap.engine, query, 8)
        assert lazy == reference_frame_ranking(via_sql.engine, query, 8)
        ranking = _ranking(via_snap, query)
        assert [fid for fid, _d, _pf in ranking] == [fid for fid, _d, _pf in lazy]
        np.testing.assert_allclose(
            [d for _fid, d, _pf in ranking], [d for _fid, d, _pf in lazy], atol=1e-9
        )
        via_snap.close()
        via_sql.close()

    def test_video_metadata_survives(self, library):
        lib, _ = library
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        records = system.key_frames_of(1)
        assert records and records[0].video_name
        assert records[0].category == "news"
        clip_matches = system.search_by_video(_video(11), top_k=3)
        assert clip_matches
        system.close()


class TestWalReplay:
    """The image catches up from the database log: the commits after its
    stamp replay through the calls ingest made."""

    def test_incremental_ingest_replays_identically(self, library):
        lib, query = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.admin.add_video(_video(44, "movies"))
        assert writer.metrics()["snapshot"]["commits_behind"] == 1
        writer.close()

        replayed = VideoRetrievalSystem.open(lib, SystemConfig())
        rebuilt = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert replayed.snapshots.served_from == "mmap"
        assert replayed.n_key_frames() == rebuilt.n_key_frames()
        assert replayed._store.generation == rebuilt._store.generation
        assert _ranking(replayed, query) == _ranking(rebuilt, query)
        replayed.close()
        rebuilt.close()

    def test_delete_and_rename_replay(self, library):
        lib, query = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.admin.delete_video(2)
        writer.admin.rename_video(3, "renamed")
        assert writer.metrics()["snapshot"]["commits_behind"] == 2
        writer.close()

        replayed = VideoRetrievalSystem.open(lib, SystemConfig())
        rebuilt = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert replayed.snapshots.served_from == "mmap"
        assert replayed.key_frames_of(3)[0].video_name == "renamed"
        assert not replayed.key_frames_of(2)
        assert _ranking(replayed, query) == _ranking(rebuilt, query)
        replayed.close()
        rebuilt.close()

    def test_checkpoint_compacts_wal(self, library):
        """A checkpoint writes the image at the last commit, then restarts
        the database log there."""
        lib, _ = library
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        system.admin.add_video(_video(45, "movies"))
        assert system.metrics()["snapshot"]["commits_behind"] == 1
        system.admin.checkpoint()
        stats = system.metrics()["snapshot"]
        assert (stats["commit_seq"], stats["commits_behind"]) == (system.db.commit_seq, 0)
        log = read_log(lib + ".wal")
        assert (log.base, log.commits) == (system.db.commit_seq, [])
        system.close()
        fresh = VideoRetrievalSystem.open(lib, SystemConfig())
        assert fresh.snapshots.served_from == "mmap"
        assert fresh.n_videos() == 4
        fresh.close()

    def test_add_video_fsyncs_once(self, library, monkeypatch):
        """One history: the commit's log record is the only durable write."""
        lib, _ = library
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        synced = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real(fd)))
        system.admin.add_video(_video(46, "movies"))
        assert len(synced) == 1
        monkeypatch.undo()
        system.close()

    def test_crash_between_database_file_and_log_restart(self, library, monkeypatch):
        """A checkpoint killed right after the database file's rename: the
        log still holds the commits the file folded, and replay skips them."""
        lib, query = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.admin.add_video(_video(47, "movies"))
        writer.admin.rename_video(1, "before-crash")
        rows, ranking = _sql_rows(writer.db), _ranking(writer, query)
        real = os.replace

        def crash_after_rename(src, dst):
            real(src, dst)
            if dst == lib:
                raise _Crash

        monkeypatch.setattr(os, "replace", crash_after_rename)
        with pytest.raises(_Crash):
            writer.admin.checkpoint()
        monkeypatch.undo()
        writer.close()
        assert read_log(lib + ".wal").commits  # the log was not restarted

        reopened = VideoRetrievalSystem.open(lib, SystemConfig())
        rebuilt = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert reopened.snapshots.served_from == "mmap"
        assert _sql_rows(reopened.db) == rows == _sql_rows(rebuilt.db)
        assert _ranking(reopened, query) == ranking == _ranking(rebuilt, query)
        assert_same_store(reopened._store, rebuilt._store, reopened.engine.extractors)
        reopened.admin.add_video(_video(48, "movies"))  # the sequence goes on
        reopened.close()
        rebuilt.close()
        again = VideoRetrievalSystem.open(lib, SystemConfig())
        assert again.n_videos() == 5 and again.snapshots.served_from == "mmap"
        again.close()


class TestFallbackAndRequire:
    def test_corrupt_snapshot_falls_back_to_sql(self, library):
        lib, query = library
        with open(lib + ".snap", "r+b") as fh:
            fh.seek(30)  # inside the header JSON: checksum mismatch on open
            fh.write(b"\xff\xff")
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        assert system.snapshots.served_from == "rebuild"
        assert len(system.search(query, top_k=5)) >= 1
        system.close()

    def test_missing_snapshot_falls_back(self, library):
        lib, query = library
        os.remove(lib + ".snap")
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        assert system.snapshots.served_from == "rebuild"
        assert len(system.search(query, top_k=5)) >= 1
        system.close()

    def test_stale_snapshot_detected(self, library):
        """A snapshot missing later transactions must not serve silently."""
        lib, _ = library
        # mutate with snapshots off, then fold the log: the DB moves past
        # the image and no log says how
        writer = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        writer.admin.add_video(_video(47, "movies"))
        writer.db.checkpoint()
        writer.close()
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        assert system.snapshots.served_from == "rebuild"
        assert system.n_videos() == 4
        system.close()

    def test_require_mode_raises_without_snapshot(self, library):
        lib, _ = library
        os.remove(lib + ".snap")
        with pytest.raises(SnapshotRequiredError):
            VideoRetrievalSystem.open(lib, SystemConfig(snapshot="require"))

    def test_snapshot_off_never_reads_the_file(self, library):
        lib, _ = library
        with open(lib + ".snap", "wb") as fh:
            fh.write(b"garbage")  # would fail loudly if opened
        system = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert system.metrics()["snapshot"] is None
        system.close()

    def test_read_replica_serves_without_database(self, library):
        """in_memory + snapshot_path + require: rankings without SQL."""
        lib, query = library
        replica = VideoRetrievalSystem.in_memory(
            SystemConfig(snapshot="require", snapshot_path=lib + ".snap")
        )
        rebuilt = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert replica.snapshots.served_from == "mmap"
        assert replica.n_key_frames() == rebuilt.n_key_frames()
        assert _ranking(replica, query) == _ranking(rebuilt, query)
        replica.close()
        rebuilt.close()


class TestWritesAfterTheImage:
    """Every committed write reaches the image through the log: the ones
    ingest makes replay, any other write to the store's tables makes the
    image stale.  A rename, or a delete + add of equal frame count, moves
    neither ``COUNT(*)`` nor ``MAX(I_ID)`` of ``KEY_FRAMES``."""

    def _reopened(self, lib, writer):
        """Close ``writer``; the reopened system, bitwise the SQL rebuild
        and at the writer's generation counters."""
        generations = (writer._store.generation, writer._store.structure_generation)
        writer.close()
        reopened = VideoRetrievalSystem.open(lib, SystemConfig())
        rebuilt = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert_same_store(reopened._store, rebuilt._store, reopened.engine.extractors)
        rebuilt.close()
        if reopened.snapshots.served_from == "mmap":
            assert (reopened._store.generation,
                    reopened._store.structure_generation) == generations
        return reopened

    def test_rename_replays(self, library):
        lib, query = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.admin.rename_video(3, "renamed")
        reopened = self._reopened(lib, writer)
        assert reopened.snapshots.served_from == "mmap"
        assert reopened.key_frames_of(3)[0].video_name == "renamed"
        names = {h.video_name for h in reopened.search(query, top_k=len(reopened._store))}
        assert "renamed" in names
        reopened.close()

    def test_delete_and_equal_add_replay(self, library):
        lib, query = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        removed = writer.admin.delete_video(3)
        report = writer.admin.add_video(_video(14, "movies", shots=3))
        # same frame count and, ids being MAX + 1, the same frame ids
        assert (report.video_id, report.n_keyframes) == (3, removed)
        reopened = self._reopened(lib, writer)
        assert reopened.snapshots.served_from == "mmap"
        assert reopened.key_frames_of(3)[0].category == "movies"
        reopened.close()

    @pytest.mark.parametrize("checkpoint", [False, True], ids=["log", "checkpoint"])
    def test_sql_write_the_image_never_saw_rebuilds(self, library, checkpoint):
        """SQL that bypasses ingest: the live store never sees it, so no
        image may claim it -- not even one written afterwards."""
        lib, _ = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.db.execute(
            "UPDATE VIDEO_STORE SET CATEGORY = ? WHERE V_ID = ?", ("movies", 1)
        )
        if checkpoint:
            writer.admin.checkpoint()
        reopened = self._reopened(lib, writer)
        assert reopened.snapshots.served_from == "rebuild"
        assert reopened.key_frames_of(1)[0].category == "movies"
        reopened.close()

    def test_foreign_image_at_the_same_sequence_rebuilds(self, library, tmp_path):
        lib, _ = library
        other = str(tmp_path / "other" / "lib.rdb")
        os.makedirs(os.path.dirname(other))
        twin = VideoRetrievalSystem.open(other, SystemConfig(workers=1))
        for seed, category in ((11, "news"), (12, "sports"), (15, "movies")):
            twin.admin.add_video(_video(seed, category))
        twin.admin.checkpoint()
        twin.close()
        shutil.copy(other + ".snap", lib + ".snap")
        writer = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        snap = Snapshot.open(lib + ".snap")
        assert snap.meta["commit_seq"] == writer.db.commit_seq
        assert snap.meta["token"] != writer.db.token
        snap.close()
        reopened = self._reopened(lib, writer)
        assert reopened.snapshots.served_from == "rebuild"
        assert reopened.key_frames_of(3)[0].category == "cartoon"
        reopened.close()

    def test_replica_reads_the_same_tail(self, library):
        lib, query = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.admin.delete_video(2)
        writer.admin.add_video(_video(16, "movies"))
        writer.admin.rename_video(3, "renamed")
        replica = VideoRetrievalSystem.in_memory(
            SystemConfig(snapshot="require", snapshot_path=lib + ".snap")
        )
        assert replica.snapshots.served_from == "mmap"
        assert replica.metrics()["snapshot"]["commits_behind"] == 3
        assert_same_store(replica._store, writer._store, writer.engine.extractors)
        assert _ranking(replica, query) == _ranking(writer, query)
        snap, store = open_snapshot_store(lib + ".snap")
        assert_same_store(store, writer._store, writer.engine.extractors)
        snap.close()
        replica.close()
        writer.close()

    def test_database_checkpoint_alone_leaves_the_image_behind(self, library):
        lib, _ = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.admin.rename_video(1, "folded")
        writer.db.checkpoint()  # the log restarts past the image's commit
        reopened = self._reopened(lib, writer)
        assert reopened.snapshots.served_from == "rebuild"
        assert reopened.key_frames_of(1)[0].video_name == "folded"
        reopened.close()
        with pytest.raises(SnapshotRequiredError):
            VideoRetrievalSystem.in_memory(
                SystemConfig(snapshot="require", snapshot_path=lib + ".snap")
            )


class TestAnnState:
    def test_ivf_rides_in_snapshot_without_retrain(self, library):
        lib, query = library
        config = SystemConfig(ann=True, ann_cells=3, query_cache_size=0)
        trainer = VideoRetrievalSystem.open(lib, config)
        trainer.search(query, top_k=5, use_index=False)  # trains the IVF
        assert trainer.metrics()["ann"]["builds"] >= 1
        trainer.admin.checkpoint()  # snapshot now carries the trained state
        expected = _ranking(trainer, query, use_index=False)
        trainer.close()

        served = VideoRetrievalSystem.open(lib, config)
        assert served.snapshots.served_from == "mmap"
        assert _ranking(served, query, use_index=False) == expected
        assert served.metrics()["ann"]["builds"] == 0  # restored, not retrained
        served.close()


class TestPreparedCacheUnification:
    def test_engines_share_store_prepared_cache(self, library):
        """structure_generation fix: one prepared matrix per store, not
        one per engine (core/search.py used to keep a private dict)."""
        lib, query = library
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        name = system.config.features[0]
        engine = system._engine
        def same(x, y):  # two views of one buffer, row for row
            return x.shape == y.shape and np.shares_memory(x, y)

        a = engine._prepared_matrix(name)
        assert same(a, system._store.prepared_matrix(name, engine.extractors[name]))
        system.search(query, top_k=3)
        assert same(engine._prepared_matrix(name), a)  # stable while unmutated
        system.admin.rename_video(1, "zzz")  # generation bump, same structure
        system.admin.add_video(_video(48, "movies"))  # structural change
        grown = engine._prepared_matrix(name)
        assert len(grown) == len(system._store) > len(a)
        assert np.array_equal(grown[: len(a)], a)  # patched, not rebuilt
        system.close()
