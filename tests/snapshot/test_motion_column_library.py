"""A library written while ``VIDEO_STORE.MOTION`` held a motion descriptor
still opens, catches up and answers as one written today.

Such a library differs from a new one in three places, and the test
writes all three: ``VIDEO_STORE`` rows whose MOTION cell is a feature
string, an RSNAP1 image whose per-video meta carries a ``"motion"`` key,
and a log tail whose video insert binds that string.  The insert's text is
the one written then, and the one ingest still writes (with NULL).
"""

import numpy as np
import pytest

import repro.core.snapshots as snapshots
from repro.core.config import SystemConfig
from repro.core.ingest import _INSERT_VIDEO
from repro.core.system import VideoRetrievalSystem
from repro.snapshot import Snapshot
from repro.video.generator import VideoSpec, generate_video
from tests.integration.test_stateful import assert_same_store

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: the video insert as libraries with a motion descriptor logged it
WRITTEN_INSERT = (
    "INSERT INTO VIDEO_STORE (V_ID, V_NAME, CATEGORY, VIDEO, MOTION, DOSTORE) "
    "VALUES (?, ?, ?, ?, ?, ?)"
)
#: a MOTION cell as it was stored: 4 statistics + 8 direction bins
MOTION = (
    "MOTION 12 15.100306919642858 15.45987226789789 52.9658203125 "
    "0.14285714285714285 0.0 0.0 0.13333333333333333 0.0 "
    "0.26666666666666666 0.03333333333333333 0.16666666666666666 0.4"
)
VIDEOS = ((11, "news"), (12, "sports"), (13, "cartoon"))
TAIL_VIDEO = (14, "movies")


def _video(seed, category):
    return generate_video(
        VideoSpec(category=category, seed=seed, width=64, height=48, n_shots=2, frames_per_shot=4)
    )


def _with_motion_cells(db, monkeypatch):
    """Every video insert on ``db`` binds a MOTION string, as it once did."""
    execute = db.execute

    def writing_motion(text, params=()):
        if text == WRITTEN_INSERT:
            assert params[4] is None  # what ingest writes now
            params = params[:4] + (MOTION,) + params[5:]
        return execute(text, params)

    monkeypatch.setattr(db, "execute", writing_motion)


def _with_motion_meta(monkeypatch):
    """Every image written carries a per-video ``"motion"`` string."""
    build = snapshots.build_snapshot_payload

    def with_motion(store, ivf=None):
        arrays, meta = build(store, ivf)
        for video in meta["videos"].values():
            video["motion"] = MOTION
        return arrays, meta

    monkeypatch.setattr(snapshots, "build_snapshot_payload", with_motion)


def _build(path, monkeypatch=None):
    """Three videos under a checkpoint, one more in the log tail."""
    system = VideoRetrievalSystem.open(path, SystemConfig())
    try:
        if monkeypatch is not None:
            _with_motion_cells(system.db, monkeypatch)
            _with_motion_meta(monkeypatch)
        for seed, category in VIDEOS:
            system.admin.add_video(_video(seed, category))
        system.admin.checkpoint()
        system.admin.add_video(_video(*TAIL_VIDEO))
    finally:
        system.close()
        if monkeypatch is not None:
            monkeypatch.undo()


def _answers(system, frame, clip):
    vectors = {
        name: extractor.extract(frame) for name, extractor in system.engine.extractors.items()
    }
    frame_hits = [
        (h.frame_id, h.distance.hex(), sorted((n, d.hex()) for n, d in h.per_feature.items()))
        for use_index in (True, False)
        for h in system.search(frame, top_k=12, use_index=use_index)
    ]
    vector_hits = [
        (h.frame_id, h.distance.hex())
        for h in system.engine.query_with_vectors(vectors, top_k=12)
    ]
    clip_hits = [(m.video_id, m.distance.hex()) for m in system.search_by_video(clip, top_k=4)]
    return frame_hits, vector_hits, clip_hits


def test_library_with_motion_cells_opens_and_answers_identically(tmp_path, monkeypatch):
    assert _INSERT_VIDEO == WRITTEN_INSERT  # the text the log tail replays by
    old, new = str(tmp_path / "old.rdb"), str(tmp_path / "new.rdb")
    _build(old, monkeypatch)
    _build(new)

    snap = Snapshot.open(old + ".snap")
    try:
        assert {v["motion"] for v in snap.meta["videos"].values()} == {MOTION}
    finally:
        snap.close()
    clip = _video(21, "sports").frames
    reference = VideoRetrievalSystem.open(new, SystemConfig(snapshot="off"))
    try:
        assert all(
            r["MOTION"] is None
            for r in reference.db.execute("SELECT MOTION FROM VIDEO_STORE").rows
        )
        frame = reference.get_key_frame(reference.feature_store.frame_ids()[-1])
        want = _answers(reference, frame, clip)
        for mode in ("auto", "require", "off"):
            system = VideoRetrievalSystem.open(old, SystemConfig(snapshot=mode))
            try:
                cells = system.db.execute("SELECT MOTION FROM VIDEO_STORE").rows
                assert [r["MOTION"] for r in cells] == [MOTION] * (len(VIDEOS) + 1)
                if mode == "off":
                    assert system.snapshots.served_from == "rebuild"
                else:
                    assert system.snapshots.served_from == "mmap"
                    assert system.metrics()["snapshot"]["commits_behind"] == 1
                assert system.n_videos() == len(VIDEOS) + 1
                assert_same_store(
                    system.feature_store, reference.feature_store, system.engine.extractors
                )
                assert np.array_equal(system.feature_store.ids, reference.feature_store.ids)
                assert _answers(system, frame, clip) == want
            finally:
                system.close()
    finally:
        reference.close()
