"""FeatureStore tests."""

import numpy as np
import pytest

from repro.core.store import FeatureStore, FrameRecord
from repro.features.base import FeatureVector
from repro.indexing.rangefinder import Bucket


def _record(frame_id, video_id=1, category="sports"):
    return FrameRecord(
        frame_id=frame_id,
        video_id=video_id,
        video_name=f"v{video_id}",
        frame_name=f"f{frame_id}",
        category=category,
        bucket=Bucket(0, 127),
        features={"sch": FeatureVector(kind="sch", values=np.ones(4))},
    )


class TestStore:
    def test_add_and_get(self):
        store = FeatureStore()
        store.add(_record(1))
        assert 1 in store and len(store) == 1
        assert store.get(1).frame_name == "f1"

    def test_duplicate_id_rejected(self):
        store = FeatureStore()
        store.add(_record(1))
        with pytest.raises(KeyError):
            store.add(_record(1))

    def test_frames_of_video_ordered(self):
        store = FeatureStore()
        store.add(_record(5, video_id=2))
        store.add(_record(3, video_id=2))
        store.add(_record(9, video_id=1))
        assert [r.frame_id for r in store.frames_of_video(2)] == [3, 5]
        assert store.video_ids() == [1, 2]

    def test_remove_video(self):
        store = FeatureStore()
        store.add(_record(1, video_id=1))
        store.add(_record(2, video_id=1))
        store.add(_record(3, video_id=2))
        removed = store.remove_video(1)
        assert sorted(removed) == [1, 2]
        assert len(store) == 1
        assert store.frames_of_video(1) == []

    def test_clear(self):
        store = FeatureStore()
        store.add(_record(1))
        store.clear()
        assert len(store) == 0

    def test_rebuild_from_db_matches_live_store(self, ingested_system):
        rebuilt = FeatureStore()
        rebuilt.rebuild_from_db(
            ingested_system.db, list(ingested_system.config.features)
        )
        live = ingested_system._store
        assert rebuilt.frame_ids() == live.frame_ids()
        for fid in live.frame_ids():
            a, b = live.get(fid), rebuilt.get(fid)
            assert a.video_id == b.video_id
            assert a.category == b.category
            assert a.bucket == b.bucket
            assert set(a.features) == set(b.features)
            for kind in a.features:
                assert np.allclose(a.features[kind].values, b.features[kind].values)


def _vec(kind, seed, d=4):
    return FeatureVector(kind=kind, values=np.random.default_rng(seed).random(d) + 0.1)


def _partial_store():
    """Frames 1-6 over videos 1-3; only the odd frames carry ``extra``."""
    store = FeatureStore()
    for fid in range(1, 7):
        features = {"sch": _vec("sch", fid)}
        if fid % 2:
            features["extra"] = _vec("extra", 100 + fid, d=3)
        store.add(
            FrameRecord(fid, 1 + (fid - 1) // 2, f"v{1 + (fid - 1) // 2}", f"f{fid}",
                        "c", Bucket(0, 127), features)
        )
    return store


def _same_frames(a, b):
    assert a.frame_ids() == b.frame_ids() and a.video_ids() == b.video_ids()
    for fid in a.frame_ids():
        ra, rb = a.get(fid), b.get(fid)
        assert (ra.video_id, ra.video_name, ra.frame_name, ra.bucket) == (
            rb.video_id, rb.video_name, rb.frame_name, rb.bucket
        )
        assert sorted(ra.features) == sorted(rb.features)
        for name in ra.features:
            assert ra.features[name] == rb.features[name]


class TestPartialFeatures:
    def test_absent_feature_is_absent_from_the_view(self):
        store = _partial_store()
        assert set(store.get(1).features) == {"sch", "extra"}
        assert set(store.get(2).features) == {"sch"}
        assert "extra" not in store.get(2).features
        with pytest.raises(KeyError):
            store.feature_matrix("extra")  # not every frame carries it
        carried = store.feature_matrix("extra", [1, 3, 5])
        assert carried.shape == (3, 3)
        assert np.array_equal(carried[1], store.get(3).features["extra"].values)
        assert store.feature_matrix("sch").shape == (6, 4)

    def test_last_carrier_leaving_drops_the_feature(self):
        store = FeatureStore()
        store.add(FrameRecord(1, 1, "v1", "f1", None, Bucket(0, 255),
                              {"sch": _vec("sch", 1), "extra": _vec("extra", 2)}))
        store.add(FrameRecord(2, 2, "v2", "f2", None, Bucket(0, 255), {"sch": _vec("sch", 3)}))
        store.remove_video(1)
        assert set(store.feature_columns()) == {"sch"}
        assert store.feature_columns()["sch"].rows is None

    def test_snapshot_round_trip_keeps_the_subset(self, tmp_path):
        from repro.core.snapshots import build_snapshot_payload, open_snapshot_store
        from repro.snapshot import write_snapshot

        store = _partial_store()
        path = str(tmp_path / "partial.snap")
        arrays, meta = build_snapshot_payload(store)
        assert meta["features"]["extra"]["rows"] == "subset"
        assert arrays["feat_rows:extra"].tolist() == [1, 3, 5]
        write_snapshot(path, arrays, meta)
        snapshot, reopened = open_snapshot_store(path)
        try:
            _same_frames(store, reopened)
        finally:
            snapshot.close()

    def test_take_and_merged_are_inverse(self):
        store = _partial_store()
        store.rename_video(2, "renamed")
        columns = store.columns
        evens = store.take(np.flatnonzero(columns.video_ids % 2 == 0))
        odds = store.take(np.flatnonzero(columns.video_ids % 2 == 1))
        assert evens.frame_ids() == [3, 4] and odds.frame_ids() == [1, 2, 5, 6]
        assert evens.generation == evens.structure_generation == 2
        whole = FeatureStore.merged([evens, odds])
        _same_frames(store, whole)
        assert [whole.video(v) for v in (1, 2)] == [store.video(v) for v in (1, 2)]
        assert whole.video(2).name == "renamed"
        with pytest.raises(KeyError):
            FeatureStore.merged([evens, evens])


class TestOrderAndCapacity:
    def test_out_of_order_add_lands_at_its_sorted_row(self):
        store = FeatureStore()
        for fid in (5, 9, 2, 7, 1):
            store.add(_record(fid))
        assert store.frame_ids() == [1, 2, 5, 7, 9]
        assert store.matrix_rows([7, 1]).tolist() == [3, 0]

    def test_add_after_delete_reuses_spare_rows(self):
        store = FeatureStore()
        for fid in range(1, 41):
            store.add(_record(fid, video_id=1 + (fid - 1) // 10))
        before = store.feature_matrix("sch")
        store.remove_video(2)
        matrix = store.feature_matrix("sch")
        assert not np.shares_memory(matrix, before)  # compressed into a fresh array
        store.add(_record(41, video_id=5))
        assert np.shares_memory(store.feature_matrix("sch"), matrix)  # written in place
        assert len(before) == 40 and len(matrix) == 30  # views handed out keep their rows

    def test_vector_length_is_checked(self):
        store = FeatureStore()
        store.add(_record(1))
        bad = FrameRecord(2, 1, "v1", "f2", "sports", Bucket(0, 127),
                          {"sch": FeatureVector(kind="sch", values=np.ones(5))})
        with pytest.raises(ValueError):
            store.add(bad)
        assert len(store) == 1
