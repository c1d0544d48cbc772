"""System-level snapshot serving: byte identity, WAL replay, fallback.

The acceptance bar for the snapshot layer: a process that opens the mmap
snapshot must be indistinguishable -- to the byte -- from one that
rebuilt its store from SQL, across feature matrices, rankings, ANN
probes, and generation counters.
"""

import os

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.snapshots import SnapshotRequiredError
from repro.core.system import VideoRetrievalSystem
from repro.video.generator import VideoSpec, generate_video
from tests.core.clip_reference import reference_frame_ranking

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


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
    def test_incremental_ingest_replays_identically(self, library):
        lib, query = library
        writer = VideoRetrievalSystem.open(lib, SystemConfig())
        writer.admin.add_video(_video(44, "movies"))
        assert writer.snapshots.wal_depth == 1
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
        assert writer.snapshots.wal_depth == 2
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
        lib, _ = library
        system = VideoRetrievalSystem.open(lib, SystemConfig())
        system.admin.add_video(_video(45, "movies"))
        assert system.snapshots.wal_depth == 1
        system.admin.checkpoint()
        assert system.snapshots.wal_depth == 0
        system.close()
        fresh = VideoRetrievalSystem.open(lib, SystemConfig())
        assert fresh.snapshots.served_from == "mmap"
        assert fresh.n_videos() == 4
        fresh.close()

    def test_auto_compaction_threshold(self, library):
        lib, _ = library
        system = VideoRetrievalSystem.open(
            lib, SystemConfig(snapshot_compact_every=2))
        system.admin.rename_video(1, "a")
        assert system.snapshots.wal_depth == 1
        system.admin.rename_video(1, "b")  # hits the threshold -> compacted
        assert system.snapshots.wal_depth == 0
        system.close()

    def test_kill_mid_compact_leaves_valid_state(self, library):
        """Fault point ``snapshot.compact``: the old snapshot + WAL survive."""
        lib, query = library
        system = VideoRetrievalSystem.open(
            lib,
            SystemConfig(snapshot_compact_every=1,
                         fault_spec="snapshot.compact:once"),
        )
        system.admin.add_video(_video(46, "movies"))
        # compaction was attempted (threshold 1) and died on the fault;
        # the mutation stays in the WAL
        assert system.snapshots.wal_depth == 1
        # next mutation retries compaction, which now succeeds
        system.admin.rename_video(1, "after-crash")
        assert system.snapshots.wal_depth == 0
        system.close()

        replayed = VideoRetrievalSystem.open(lib, SystemConfig())
        rebuilt = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        assert replayed.snapshots.served_from == "mmap"
        assert _ranking(replayed, query) == _ranking(rebuilt, query)
        assert replayed.key_frames_of(1)[0].video_name == "after-crash"
        replayed.close()
        rebuilt.close()


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
        # mutate with snapshots off: the DB moves, the snapshot does not
        writer = VideoRetrievalSystem.open(lib, SystemConfig(snapshot="off"))
        writer.admin.add_video(_video(47, "movies"))
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
        assert system.snapshot_stats() is None
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


class TestAnnState:
    def test_ivf_rides_in_snapshot_without_retrain(self, library):
        lib, query = library
        config = SystemConfig(ann=True, ann_cells=3, query_cache_size=0)
        trainer = VideoRetrievalSystem.open(lib, config)
        trainer.search(query, top_k=5, use_index=False)  # trains the IVF
        assert trainer.ann_stats()["builds"] >= 1
        trainer.admin.checkpoint()  # snapshot now carries the trained state
        expected = _ranking(trainer, query, use_index=False)
        trainer.close()

        served = VideoRetrievalSystem.open(lib, config)
        assert served.snapshots.served_from == "mmap"
        assert _ranking(served, query, use_index=False) == expected
        assert served.ann_stats()["builds"] == 0  # restored, not retrained
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
