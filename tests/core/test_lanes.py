"""Frame analysis on two lanes (``repro.core.lanes``).

The Gabor bank runs over every key frame on the pool's helper thread while
the calling thread runs the other extractors; what comes back must be what
one thread computes, in the same order.  A failure on either lane must
leave nothing behind on ingest, and must degrade a query, not fail it.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.lanes import analyse_frames
from repro.core.system import VideoRetrievalSystem
from repro.features.base import get_extractor
from repro.features.color_histogram import SimpleColorHistogram
from repro.features.gabor import GaborTexture
from repro.runtime import WorkerPool
from repro.video.generator import VideoSpec, generate_video, make_corpus
from tests.core.clip_reference import reference_clip_ranking, reference_frame_ranking
from tests.runtime.test_pool import _two_cpus, needs_two_cpus

FEATURES = ("sch", "glcm", "gabor", "tamura", "acc", "regions")


@pytest.fixture(scope="module")
def tiny_corpus():
    return make_corpus(videos_per_category=1, seed=42, n_shots=2, frames_per_shot=4)[:3]


@pytest.fixture(scope="module")
def clip():
    return generate_video(VideoSpec(category="news", seed=321, n_shots=3, frames_per_shot=4))


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _brightness(frame):
    return float(frame.pixels.mean())


def _lane_threads():
    return {t.ident for t in threading.enumerate() if t.name.startswith("repro-lane")}


def _ingest(corpus, config=None):
    system = VideoRetrievalSystem.in_memory(config)
    for video in corpus:
        system.admin.add_video(video)
    return system


def _rows(system):
    rows = system.db.execute("SELECT * FROM KEY_FRAMES ORDER BY I_ID").rows
    videos = system.db.execute("SELECT * FROM VIDEO_STORE ORDER BY V_ID").rows
    return [dict(r) for r in rows], [dict(r) for r in videos]


def _rows_ingested_in_a_worker(parent_pid):
    """A submit task: ingest the module's corpus in the worker process."""
    assert os.getpid() != parent_pid
    corpus = make_corpus(videos_per_category=1, seed=42, n_shots=2, frames_per_shot=4)[:3]
    system = _ingest(corpus)
    try:
        return _rows(system)
    finally:
        system.close()


@pytest.fixture(scope="module")
def two_lane_rows(tiny_corpus):
    system = _ingest(tiny_corpus)
    try:
        yield _rows(system)
    finally:
        system.close()


class TestAnalyseFrames:
    def test_one_thread_results_in_extractor_order(self, clip):
        extractors = {name: get_extractor(name) for name in reversed(FEATURES)}
        frames = list(clip.frames)
        with WorkerPool(workers=1) as pool:
            analysis = analyse_frames(frames, extractors, pool, per_frame=_brightness)
        assert len(analysis.features) == len(analysis.seconds) == len(frames)
        for frame, vectors, seconds, extra in zip(
            frames, analysis.features, analysis.seconds, analysis.extras
        ):
            assert list(vectors) == list(extractors)  # order, not just keys
            assert set(seconds) == set(extractors)
            assert all(s >= 0.0 for s in seconds.values())
            for name, extractor in extractors.items():
                assert vectors[name] == extractor.extract(frame)
            assert extra == _brightness(frame)

    def test_degrade_drops_a_feature_from_every_frame(self, monkeypatch, clip):
        real = GaborTexture.extract
        frames = list(clip.frames)[:5]
        calls = []

        def third_fails(self, image):
            calls.append(image)
            if np.array_equal(image.pixels, frames[2].pixels):
                raise _LaneFailure("gabor failed")
            return real(self, image)

        monkeypatch.setattr(GaborTexture, "extract", third_fails)
        extractors = {name: get_extractor(name) for name in FEATURES}
        with WorkerPool(workers=1) as pool:
            analysis = analyse_frames(frames, extractors, pool, degrade=True)
            assert len(calls) == 3  # not run again after its failure
            with pytest.raises(_LaneFailure):
                analyse_frames(frames, extractors, pool)  # a write stops there
        assert list(analysis.failed) == ["gabor"]
        survivors = [name for name in FEATURES if name != "gabor"]
        assert [list(vectors) for vectors in analysis.features] == [survivors] * 5

    def test_callers_sharing_one_lane_get_their_own_answers(self, clip):
        extractors = {name: get_extractor(name) for name in FEATURES}
        frames = list(clip.frames)
        want = [
            {name: extractor.extract(frame) for name, extractor in extractors.items()}
            for frame in frames
        ]
        got = {}

        def analyse(i, pool):
            got[i] = analyse_frames(frames[i::4], extractors, pool).features

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(workers=1) as pool:
                threads = [threading.Thread(target=analyse, args=(i, pool)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == {i: want[i::4] for i in range(4)}


class TestIngest:
    def test_forked_workers_after_the_lane_match_serial_bytes(
        self, tiny_corpus, two_lane_rows
    ):
        # the parent has a live helper thread when the worker forks
        parent = _ingest(tiny_corpus[:1])
        try:
            if _two_cpus():
                assert parent._pool._lane is not None
            with WorkerPool(workers=1) as pool:
                task = pool.submit(_rows_ingested_in_a_worker, os.getpid())
                assert not task.inline
                assert task.result() == two_lane_rows
        finally:
            parent.close()

    def test_one_cpu_creates_no_thread_and_stores_the_same_bytes(
        self, monkeypatch, tiny_corpus, two_lane_rows
    ):
        _one_cpu(monkeypatch)
        before = _lane_threads()
        system = _ingest(tiny_corpus)
        try:
            assert system._pool._lane is None
            assert _lane_threads() <= before
            assert _rows(system) == two_lane_rows
        finally:
            system.close()


class _LaneFailure(RuntimeError):
    pass


def _library_state(system, directory):
    files = {}
    # SQLite's -shm is its shared-memory WAL index: every read rewrites it
    for name in sorted(n for n in os.listdir(directory) if not n.endswith("-shm")):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return (
        len(system.db.execute("SELECT I_ID FROM KEY_FRAMES").rows),
        len(system.db.execute("SELECT V_ID FROM VIDEO_STORE").rows),
        len(system.feature_store),
        files,
    )


class TestFailure:
    @pytest.fixture()
    def library(self, tmp_path, tiny_corpus):
        system = VideoRetrievalSystem.open(str(tmp_path / "lib.rdb"))
        system.admin.add_video(tiny_corpus[0])
        yield system, str(tmp_path)
        system.close()

    def test_helper_lane_error_surfaces_and_nothing_is_ingested(
        self, monkeypatch, library, tiny_corpus
    ):
        system, directory = library

        def failing(self, image):
            raise _LaneFailure("gabor failed")

        monkeypatch.setattr(GaborTexture, "extract", failing)
        before = _library_state(system, directory)
        with pytest.raises(_LaneFailure):
            system.admin.add_video(tiny_corpus[1])
        assert _library_state(system, directory) == before

    def test_calling_lane_error_waits_for_the_helper_lane(
        self, monkeypatch, library, tiny_corpus
    ):
        system, directory = library
        real = GaborTexture.extract
        done = []

        def slow(self, image):
            time.sleep(0.01)
            vector = real(self, image)
            done.append(threading.current_thread().name)
            return vector

        def failing(self, image):
            raise _LaneFailure("sch failed")

        monkeypatch.setattr(GaborTexture, "extract", slow)
        monkeypatch.setattr(SimpleColorHistogram, "extract", failing)
        before = _library_state(system, directory)
        n_key_frames = len(system.engine.keyframe_extractor.extract(list(tiny_corpus[1].frames)))
        with pytest.raises(_LaneFailure):
            system.admin.add_video(tiny_corpus[1])
        if _two_cpus():
            # the helper lane ran all its frames before add_video returned
            assert len(done) == n_key_frames
            assert all(name.startswith("repro-lane") for name in done)
        finished = len(done)
        time.sleep(0.05)
        assert len(done) == finished  # nothing still running behind the caller
        assert _library_state(system, directory) == before


    def test_helper_lane_error_degrades_a_frame_query(self, monkeypatch, library):
        system, _directory = library
        image = system.any_key_frame()
        survivors = [name for name in FEATURES if name != "gabor"]
        want = system.search(image, features=survivors, top_k=10)
        real = GaborTexture.extract
        done = []

        def failing(self, image):
            time.sleep(0.01)
            done.append(threading.current_thread().name)
            raise _LaneFailure("gabor failed")

        monkeypatch.setattr(GaborTexture, "extract", failing)
        results = system.search(image, top_k=10)
        assert done  # the helper lane finished before the query returned
        if _two_cpus():
            assert done[0].startswith("repro-lane")
        assert results.degraded_features == ["gabor"]
        assert [(h.frame_id, h.distance.hex()) for h in results] == [
            (h.frame_id, h.distance.hex()) for h in want
        ]
        monkeypatch.setattr(GaborTexture, "extract", real)
        assert not system.search(image, top_k=10).degraded  # the answer was not cached


def _hits(results):
    return [
        (h.frame_id, h.distance.hex(), {n: d.hex() for n, d in h.per_feature.items()})
        for h in results
    ]


@pytest.mark.parametrize("features", [None, ["gabor", "sch"]])
def test_frame_query_matches_the_one_lane_answer(monkeypatch, tiny_corpus, features):
    config = SystemConfig(query_cache_size=0)
    system = _ingest(tiny_corpus, config)
    try:
        image = system.get_key_frame(system.feature_store.frame_ids()[2])
        two_lanes = system.search(image, features=features, top_k=10)
        if _two_cpus():
            assert system._pool._lane is not None
        want = reference_frame_ranking(system.engine, image, 10, features)
        assert [h.frame_id for h in two_lanes] == [fid for fid, _d, _p in want]
        np.testing.assert_allclose(
            [h.distance for h in two_lanes], [d for _fid, d, _p in want], atol=1e-9
        )
        _one_cpu(monkeypatch)
        assert _hits(system.search(image, features=features, top_k=10)) == _hits(two_lanes)
    finally:
        system.close()
    before = _lane_threads()
    system = _ingest(tiny_corpus, config)  # ingested and queried on one CPU
    try:
        assert _hits(system.search(image, features=features, top_k=10)) == _hits(two_lanes)
        assert system._pool._lane is None and _lane_threads() <= before
    finally:
        system.close()


def test_clip_query_matches_the_one_lane_answer(monkeypatch, tiny_corpus, clip):
    system = _ingest(tiny_corpus, SystemConfig())
    try:
        key_frames = [f for _i, f in system.engine.keyframe_extractor.extract(list(clip.frames))]
        extractors = system.engine.extractors
        vectors = analyse_frames(key_frames, extractors, system._pool).features
        assert vectors == [
            {name: extractor.extract(frame) for name, extractor in extractors.items()}
            for frame in key_frames
        ]
        two_lanes = system.search_by_video(clip, top_k=10)
        _one_cpu(monkeypatch)
        one_lane = system.search_by_video(clip, top_k=10)
        assert [(m.video_id, m.distance.hex()) for m in two_lanes] == [
            (m.video_id, m.distance.hex()) for m in one_lane
        ]
        want = reference_clip_ranking(system.engine, clip.frames)[:10]
        assert [m.video_id for m in two_lanes] == [vid for vid, _d in want]
        np.testing.assert_allclose(
            [m.distance for m in two_lanes], [d for _vid, d in want], atol=1e-9
        )
    finally:
        system.close()


@needs_two_cpus
def test_the_gabor_bank_runs_on_the_helper_thread(monkeypatch, clip):
    real = GaborTexture.extract
    threads = set()

    def recording(self, image):
        threads.add(threading.current_thread().name)
        return real(self, image)

    monkeypatch.setattr(GaborTexture, "extract", recording)
    extractors = {name: get_extractor(name) for name in FEATURES}
    with WorkerPool(workers=1) as pool:
        analyse_frames(list(clip.frames)[:4], extractors, pool)
    assert len(threads) == 1 and threads.pop().startswith("repro-lane")
