"""ANN-accelerated search: recall, exactness, fallback, index composition."""

from dataclasses import replace

import pytest

from repro.core.config import SystemConfig
from repro.core.search import SearchEngine
from repro.core.system import VideoRetrievalSystem
from repro.video.generator import VideoSpec, generate_video


def _engine(system, **overrides):
    """A fresh SearchEngine over the (read-only) ingested store."""
    cfg = replace(system.config, query_cache_size=0, **overrides)
    return SearchEngine(cfg, system._store, system._index, pool=system._engine._pool)


@pytest.fixture(scope="module")
def brute(ingested_system):
    return _engine(ingested_system, ann=False)


@pytest.fixture(scope="module")
def ann(ingested_system):
    # cells scaled to the 20-frame fixture corpus; nprobe is the default
    return _engine(ingested_system, ann=True, ann_cells=4)


class TestRecallAndExactness:
    def test_recall_at_10(self, ingested_system, brute, ann):
        assert ann.config.ann_nprobe == SystemConfig().ann_nprobe
        hits = total = 0
        for fid in ingested_system._store.frame_ids():
            query = ingested_system.get_key_frame(fid)
            truth = {
                h.frame_id
                for h in brute.query_frame(query, top_k=10, use_index=False).hits
            }
            got = {
                h.frame_id
                for h in ann.query_frame(query, top_k=10, use_index=False).hits
            }
            hits += len(truth & got)
            total += len(truth)
        assert hits / total >= 0.9

    def test_probing_every_cell_is_byte_identical(self, ingested_system, brute):
        exhaustive = _engine(ingested_system, ann=True, ann_nprobe=SystemConfig().ann_cells)
        assert exhaustive.config.ann_nprobe == exhaustive.config.ann_cells
        for fid in ingested_system._store.frame_ids()[:5]:
            query = ingested_system.get_key_frame(fid)
            want = brute.query_frame(query, top_k=10, use_index=False)
            got = exhaustive.query_frame(query, top_k=10, use_index=False)
            assert [h.frame_id for h in got.hits] == [h.frame_id for h in want.hits]
            # exact re-rank over all cells: distances match bit for bit
            assert [h.distance for h in got.hits] == [h.distance for h in want.hits]
            assert got.n_candidates == want.n_candidates

    def test_ann_prunes_candidates(self, ingested_system):
        # a single probed cell can't hold the whole multi-assigned store
        narrow = _engine(ingested_system, ann=True, ann_cells=4, ann_nprobe=1)
        query = ingested_system.any_key_frame()
        results = narrow.query_frame(query, top_k=5, use_index=False)
        assert results.n_candidates < results.n_total
        stats = narrow.ann_stats()
        assert stats is not None and stats["probes"] > 0

    def test_missing_feature_falls_back_to_full_scan(self, ingested_system, brute, ann):
        # the IVF index spans every configured feature; a single-feature
        # query can't be placed in centroid space, so ANN must stand aside
        fid = ingested_system._store.frame_ids()[0]
        vec = {"sch": ingested_system._store.get(fid).features["sch"]}
        got = ann.query_with_vectors(dict(vec), top_k=5)
        want = brute.query_with_vectors(dict(vec), top_k=5)
        assert got.n_candidates == got.n_total
        assert [h.frame_id for h in got.hits] == [h.frame_id for h in want.hits]
        assert [h.distance for h in got.hits] == [h.distance for h in want.hits]

    def test_composes_with_range_index(self, ingested_system, ann):
        # pruned by range index AND ivf probe: the exact frame still wins
        for fid in ingested_system._store.frame_ids()[:5]:
            query = ingested_system.get_key_frame(fid)
            results = ann.query_frame(query, top_k=1, use_index=True)
            assert results.hits and results.hits[0].frame_id == fid


class TestSystemLevelANN:
    def test_end_to_end_with_ingest(self):
        config = SystemConfig(ann=True, ann_cells=3, query_cache_size=0)
        system = VideoRetrievalSystem.in_memory(config)
        admin = system.login_admin()
        for seed in (61, 62):
            admin.add_video(
                generate_video(
                    VideoSpec(category="news", seed=seed, n_shots=2, frames_per_shot=4)
                )
            )
        fid = system._store.frame_ids()[0]
        results = system.search(system.get_key_frame(fid), top_k=1, use_index=False)
        assert results[0].frame_id == fid
        n_before = system.metrics()["ann"]["builds"]
        assert n_before >= 1

        # the index follows ingest: new frames are findable immediately
        admin.add_video(
            generate_video(
                VideoSpec(category="sports", seed=63, n_shots=2, frames_per_shot=4)
            )
        )
        new_fid = system._store.frame_ids()[-1]
        results = system.search(system.get_key_frame(new_fid), top_k=1, use_index=False)
        assert results[0].frame_id == new_fid

    def test_ann_stats_absent_when_disabled(self, ingested_system):
        assert ingested_system.metrics()["ann"] is None
