"""IVF inverted-file candidate index tests (kmeans, probing, maintenance)."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.indexing.ann import IVFIndex, kmeans
from repro.video.generator import VideoSpec, generate_video


class TestKMeans:
    def _blobs(self, seed=3, n=60, d=4):
        gen = np.random.default_rng(seed)
        centers = gen.normal(size=(3, d)) * 10
        return np.vstack([c + gen.normal(scale=0.1, size=(n // 3, d)) for c in centers])

    def test_deterministic(self):
        data = self._blobs()
        c1, a1 = kmeans(data, 3, seed=11)
        c2, a2 = kmeans(data, 3, seed=11)
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)

    def test_recovers_separated_blobs(self):
        data = self._blobs()
        _, assign = kmeans(data, 3)
        # each true blob maps to exactly one cluster label
        for i in range(3):
            assert len(set(assign[i * 20 : (i + 1) * 20].tolist())) == 1

    def test_k_clamped_to_n_points(self):
        data = np.arange(6, dtype=np.float64).reshape(3, 2)
        centroids, assign = kmeans(data, 10)
        assert centroids.shape[0] == 3
        assert sorted(assign.tolist()) == [0, 1, 2]

    def test_duplicate_points_fill_all_clusters(self):
        # only 2 distinct values but k=4: empty-cluster reseeding must not
        # loop or crash, and every point must have a valid assignment
        data = np.repeat(np.array([[0.0], [9.0]]), 5, axis=0)
        centroids, assign = kmeans(data, 4)
        assert centroids.shape[0] == 4
        assert assign.min() >= 0 and assign.max() < 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), 2)


class TestIVFIndexBasics:
    def test_ctor_validation(self, ingested_system):
        store = ingested_system._store
        with pytest.raises(ValueError):
            IVFIndex(store, ["sch"], n_cells=0)
        with pytest.raises(ValueError):
            IVFIndex(store, [])
        with pytest.raises(ValueError):
            IVFIndex(store, ["sch"], rebuild_drift=0.0)
        with pytest.raises(ValueError):
            IVFIndex(store, ["sch"], n_assign=0)

    def test_build_indexes_every_frame(self, ingested_system):
        store = ingested_system._store
        index = IVFIndex(store, list(ingested_system.config.features), n_cells=4)
        index.build()
        assert index.n_indexed() == len(store)
        # multi-assignment files frames into n_assign cells, so the lists
        # hold more memberships than there are frames (when cells > 1)
        assert sum(index.cell_sizes()) >= len(store)

    def test_probe_returns_sorted_subset(self, ingested_system):
        store = ingested_system._store
        names = list(ingested_system.config.features)
        index = IVFIndex(store, names, n_cells=4)
        rec = store.get(store.frame_ids()[0])
        got = index.probe(rec.features, nprobe=1)
        assert got == sorted(got)
        assert set(got) <= set(store.frame_ids())
        # the queried frame's own cell is its nearest: it must be probed
        assert rec.frame_id in got

    def test_probe_all_cells_returns_everything(self, ingested_system):
        store = ingested_system._store
        names = list(ingested_system.config.features)
        index = IVFIndex(store, names, n_cells=4)
        rec = store.get(store.frame_ids()[0])
        assert index.probe(rec.features, nprobe=4) == store.frame_ids()

    def test_probe_missing_feature_falls_back(self, ingested_system):
        store = ingested_system._store
        names = list(ingested_system.config.features)
        index = IVFIndex(store, names, n_cells=4)
        rec = store.get(store.frame_ids()[0])
        partial = {names[0]: rec.features[names[0]]}
        assert index.probe(partial, nprobe=2) is None

    def test_probe_rejects_bad_nprobe(self, ingested_system):
        store = ingested_system._store
        index = IVFIndex(store, ["sch"], n_cells=4)
        rec = store.get(store.frame_ids()[0])
        with pytest.raises(ValueError):
            index.probe(rec.features, nprobe=0)

    def test_deterministic_partition(self, ingested_system):
        store = ingested_system._store
        names = list(ingested_system.config.features)
        a = IVFIndex(store, names, n_cells=4)
        b = IVFIndex(store, names, n_cells=4)
        a.build()
        b.build()
        assert a.cell_sizes() == b.cell_sizes()
        assert a._cells_of == b._cells_of


def _tiny_video(seed, category="news", n_shots=2, frames_per_shot=4):
    return generate_video(
        VideoSpec(
            category=category, seed=seed, n_shots=n_shots, frames_per_shot=frames_per_shot
        )
    )


class TestIncrementalMaintenance:
    @pytest.fixture()
    def system(self):
        system = VideoRetrievalSystem.in_memory(SystemConfig())
        admin = system.login_admin()
        for seed in (51, 52):
            admin.add_video(_tiny_video(seed))
        return system

    def test_incremental_add_matches_fresh_rebuild(self, system):
        store = system._store
        names = list(system.config.features)
        index = IVFIndex(store, names, n_cells=3)
        index.build()
        assert index.stats.n_builds == 1

        # 2 new frames against 16 trained ones: below the drift threshold,
        # so the index folds them in incrementally instead of retraining
        system.admin.add_video(
            _tiny_video(53, category="sports", n_shots=1, frames_per_shot=2)
        )
        rec = store.get(store.frame_ids()[0])
        got = index.probe(rec.features, nprobe=3)
        assert index.stats.n_builds == 1
        assert index.stats.n_incremental_adds > 0
        assert index.n_indexed() == len(store)

        fresh = IVFIndex(store, names, n_cells=3)
        fresh.build()
        # probing every cell is exhaustive on both, so they agree exactly
        assert got == fresh.probe(rec.features, nprobe=3)
        assert got == store.frame_ids()

    def test_incremental_remove_matches_fresh_rebuild(self, system):
        store = system._store
        names = list(system.config.features)
        # generous drift threshold so the removal stays incremental
        index = IVFIndex(store, names, n_cells=3, rebuild_drift=0.9)
        index.build()

        victim = store.video_ids()[0]
        gone = {rec.frame_id for rec in store.frames_of_video(victim)}
        system.admin.delete_video(victim)
        rec = store.get(store.frame_ids()[0])
        got = index.probe(rec.features, nprobe=3)
        assert index.stats.n_builds == 1
        assert index.stats.n_incremental_removes > 0
        assert index.n_indexed() == len(store)
        assert not (set(got) & gone)

        fresh = IVFIndex(store, names, n_cells=3)
        fresh.build()
        assert got == fresh.probe(rec.features, nprobe=3)

    def test_drift_triggers_rebuild(self, system):
        store = system._store
        names = list(system.config.features)
        index = IVFIndex(store, names, n_cells=3, rebuild_drift=0.05)
        index.build()
        system.admin.add_video(_tiny_video(54, category="sports"))
        rec = store.get(store.frame_ids()[0])
        index.probe(rec.features, nprobe=1)
        assert index.stats.n_builds == 2
        assert index.stats.n_incremental_adds == 0
        assert index.n_indexed() == len(store)

    def test_empty_store_probe(self):
        system = VideoRetrievalSystem.in_memory(SystemConfig())
        index = IVFIndex(system._store, ["sch"], n_cells=4)
        assert index.probe({}, nprobe=2) == []
