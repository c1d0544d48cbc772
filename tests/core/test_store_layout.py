"""The array-first store's structure: what it must *not* do.

Behavioural equality with a rebuilt store lives in
``tests/integration/test_stateful.py``; these tests pin the shape of the
work -- no per-frame Python on open or on a query, no per-frame container
in the range index, no matrix rebuilt from records after a write, and no
reference cycle that would keep a closed system's stacks alive.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.core.store as store_module
from repro.core.config import SystemConfig
from repro.core.snapshots import build_snapshot_payload
from repro.core.store import FeatureColumn, FeatureStore, FrameColumns, VideoInfo
from repro.core.system import VideoRetrievalSystem
from repro.snapshot import write_snapshot
from repro.video.generator import VideoSpec, generate_video

N_FRAMES = 5000
FRAMES_PER_VIDEO = 10


@pytest.fixture(scope="module")
def replica_snapshot(ingested_system, tmp_path_factory):
    """A 5 000-frame snapshot: the session corpus' rows resampled with noise."""
    source = ingested_system.feature_store
    gen = np.random.default_rng(5000)
    rows = gen.integers(0, len(source), N_FRAMES)
    columns = source.columns
    video_ids = 1 + np.arange(N_FRAMES) // FRAMES_PER_VIDEO
    big = FeatureStore()
    big.adopt(
        FrameColumns(
            np.arange(1, N_FRAMES + 1),
            video_ids,
            columns.bucket_min[rows],
            columns.bucket_max[rows],
            np.array([f"frame_{i}" for i in range(N_FRAMES)], dtype=object),
        ),
        {int(v): VideoInfo(f"video_{v}", "misc") for v in np.unique(video_ids)},
        {
            name: FeatureColumn(
                np.maximum(col.matrix[rows] * (1 + 0.05 * gen.standard_normal((N_FRAMES, 1))), 0),
                col.tag,
            )
            for name, col in source.feature_columns().items()
        },
        generation=N_FRAMES,
        structure_generation=N_FRAMES,
    )
    path = str(tmp_path_factory.mktemp("layout") / "replica.snap")
    write_snapshot(path, *build_snapshot_payload(big))
    return path


def _open_replica(path: str) -> VideoRetrievalSystem:
    return VideoRetrievalSystem.in_memory(
        SystemConfig(snapshot="require", snapshot_path=path, query_cache_size=0)
    )


@pytest.fixture()
def records_built(monkeypatch):
    """How many ``FrameRecord`` views the store has constructed."""
    built = []
    real = store_module.FrameRecord

    def counting(**fields):
        built.append(fields["frame_id"])
        return real(**fields)

    monkeypatch.setattr(store_module, "FrameRecord", counting)
    return built


class TestNoPerFrameWork:
    TOP_K = 20

    def test_open_and_queries_build_at_most_top_k_records(
        self, replica_snapshot, ingested_system, records_built
    ):
        query = ingested_system.any_key_frame()
        clip = generate_video(
            VideoSpec(category="sports", seed=3, n_shots=2, frames_per_shot=3)
        )
        system = _open_replica(replica_snapshot)
        try:
            assert system.n_key_frames() == N_FRAMES
            assert records_built == []  # the open adopted columns, built nothing
            hits = system.search(query, top_k=self.TOP_K)
            assert len(hits) == self.TOP_K
            assert len(records_built) <= self.TOP_K
            matches = system.search_by_video(clip, top_k=10)
            assert len(matches) == 10
            assert len(records_built) <= self.TOP_K  # the clip path built none
        finally:
            system.close()

    def test_range_index_holds_nothing_per_frame(self, replica_snapshot):
        system = _open_replica(replica_snapshot)
        try:
            index, store = system._index, system._store
            assert index.source is store  # frame -> bucket lives in the store's columns
            for value in vars(index).values():
                assert not isinstance(value, (dict, set, list, tuple, np.ndarray))
            # and the store keeps arrays, not a container entry per frame
            for name, value in vars(store).items():
                if isinstance(value, (dict, set, list, tuple)):
                    assert len(value) <= N_FRAMES // FRAMES_PER_VIDEO, name
            # the index follows the columns without being told
            before = index.stats().n_entries
            store.remove_video(1)
            assert index.stats().n_entries == before - FRAMES_PER_VIDEO
        finally:
            system.close()

    def test_open_columns_are_the_mmap(self, replica_snapshot):
        system = _open_replica(replica_snapshot)
        try:
            store = system._store
            section = system.snapshots._snapshot.section
            assert np.shares_memory(store.ids, section("frame_ids"))
            for name in system.config.features:
                assert np.shares_memory(store.feature_matrix(name), section(f"feat:{name}"))
        finally:
            system.close()


class TestClosedSystemIsFreed:
    def test_no_cycle_keeps_the_store_alive(self, replica_snapshot, ingested_system):
        """With the cyclic collector off, dropping the system must free the
        store: refcounts alone, no store <-> record-view cycle."""
        query = ingested_system.any_key_frame()
        gc.collect()
        gc.disable()
        try:
            system = _open_replica(replica_snapshot)
            hits = system.search(query, top_k=5)
            record = system._store.get(hits[0].frame_id)
            vector = record.features["sch"]
            store_ref = weakref.ref(system._store)
            system.close()
            del system
            assert store_ref() is None
            assert len(vector) > 0  # a view outlives the store it came from
            assert record.features["sch"] == vector
        finally:
            gc.enable()


class TestWritePatchesInPlace:
    def test_post_write_query_rebuilds_no_matrix(self, tmp_path, small_corpus, monkeypatch):
        system = VideoRetrievalSystem.open(str(tmp_path / "lib.rdb"))
        try:
            system.admin.add_video(small_corpus[0])
            system.search(system.any_key_frame(), top_k=3)  # prepared stacks now exist
            new_frame = small_corpus[1].frames[0]
            vectors = {
                name: extractor.extract(new_frame)
                for name, extractor in system.engine.extractors.items()
            }
            report = system.admin.add_video(small_corpus[1])

            def no_stack(*_args, **_kwargs):
                raise AssertionError("a write must not re-stack the records")

            monkeypatch.setattr(np, "stack", no_stack)
            hits = system.engine.query_with_vectors(vectors, top_k=3)
            assert hits[0].frame_id == report.keyframe_ids[0]
            assert hits[0].distance == pytest.approx(0.0, abs=1e-12)
        finally:
            monkeypatch.undo()
            system.close()

    def test_first_write_to_an_adopted_store_copies(self, replica_snapshot):
        system = _open_replica(replica_snapshot)
        try:
            store = system._store
            mapped = store.feature_matrix("sch")
            assert not mapped.flags.writeable
            frozen = mapped.tobytes()
            record = store.get(1)
            store.remove_video(2)
            store.add(
                store_module.FrameRecord(
                    frame_id=N_FRAMES + 1, video_id=1, video_name="video_1",
                    frame_name="extra", category="misc", bucket=record.bucket,
                    features=dict(record.features.items()),
                )
            )
            assert not np.shares_memory(store.feature_matrix("sch"), mapped)
            assert mapped.tobytes() == frozen
            assert len(store) == N_FRAMES - FRAMES_PER_VIDEO + 1
        finally:
            system.close()
