"""A crash in the middle of ``add_video``'s commit: all of the video or none.

The SQL transaction (one VIDEO_STORE row + one KEY_FRAMES row per key
frame) is one WAL record, so whatever prefix of it reached the disk, the
library reopens with either the previous video set or the whole new video
-- never a video with some of its key frames.
"""

import os
import shutil

import numpy as np

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.db import Database
from repro.imaging.image import Image

_CONFIG = SystemConfig(features=("regions",), keyframe_base_size=60)


def _clip(seed: int, n_frames: int = 2):
    """Frames different enough that each one is a key frame."""
    gen = np.random.default_rng(seed)
    return [Image(gen.integers(0, 256, (16, 16, 3), dtype=np.uint8)) for _ in range(n_frames)]


def _state(db: Database):
    videos = sorted(r["V_ID"] for r in db.execute("SELECT V_ID FROM VIDEO_STORE").rows)
    frames = sorted(
        (r["V_ID"], r["I_ID"]) for r in db.execute("SELECT V_ID, I_ID FROM KEY_FRAMES").rows
    )
    return videos, frames


def test_wal_cut_anywhere_inside_add_video_is_all_or_nothing(tmp_path):
    path = str(tmp_path / "library.rdb")
    system = VideoRetrievalSystem.open(path, _CONFIG)
    system.admin.add_video(_clip(1), name="first")
    system.db.checkpoint()  # the first video is in the SQL snapshot: replays stay short
    before_size = os.path.getsize(path + ".wal")
    before_state = _state(system.db)
    report = system.admin.add_video(_clip(2), name="second")
    after_state = _state(system.db)
    system.close()
    assert report.n_keyframes >= 2  # a partial video would be representable
    assert len(after_state[1]) == len(before_state[1]) + report.n_keyframes

    with open(path + ".wal", "rb") as fh:
        wal = fh.read()
    assert len(wal) > before_size
    work = str(tmp_path / "cut")
    os.makedirs(work)
    copy = os.path.join(work, "library.rdb")
    shutil.copy2(path, copy)
    for cut in range(before_size, len(wal) + 1):
        with open(copy + ".wal", "wb") as fh:
            fh.write(wal[:cut])
        whole = cut == len(wal)
        db = Database.open(copy)
        try:
            assert _state(db) == (after_state if whole else before_state), cut
        finally:
            db.close()
        if whole or (cut - before_size) % 997 == 0:
            # the whole system on the same bytes: the store-level snapshot
            # WAL never heard of a torn commit, and the store follows SQL
            for name in os.listdir(tmp_path):
                if name.startswith("library.rdb.snap"):
                    shutil.copy2(os.path.join(tmp_path, name), work)
            reopened = VideoRetrievalSystem.open(copy, _CONFIG)
            try:
                want = after_state if whole else before_state
                assert sorted(v["V_ID"] for v in reopened.list_videos()) == want[0]
                assert reopened.feature_store.frame_ids() == [f for _v, f in want[1]]
                assert reopened.feature_store.video_ids() == want[0]
            finally:
                reopened.close()
