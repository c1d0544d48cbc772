"""Scoring on two lanes (``SearchEngine._score_plans``).

A pass of at least ``_SPLIT_MIN_WORK`` candidate rows x features cuts
every plan's rows at their midpoint: the calling thread scores the lower
halves, the pool's helper lane the upper ones.  Every kernel reduces each
row on its own, so the answer must be bitwise the one-lane answer; the
model test (``tests/integration/test_stateful.py``) checks that for every
query kind after every write.  Here: the plans take the paths named,
callers sharing the lane get their own answers, an error on either half
fails that plan only, and the helper half is done before the pass returns.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.core.search as search
from repro.core.search import QueryRequest, SearchEngine
from repro.features.color_histogram import SimpleColorHistogram
from tests.runtime.test_pool import _two_cpus, needs_two_cpus

NEVER = 1 << 62


@pytest.fixture()
def engine_for(ingested_system):
    """``engine_for(**config)``: a cache-off engine over the session store."""
    engines = []

    def build(**config):
        config = ingested_system.config.with_(query_cache_size=0, **config)
        engines.append(
            SearchEngine(config, ingested_system.feature_store, ingested_system._index)
        )
        return engines[-1]

    yield build
    for engine in engines:
        engine.close()


def _crossover(monkeypatch, value):
    monkeypatch.setattr(search, "_SPLIT_MIN_WORK", value)


def _answer(outcome):
    """Ids, fused and per-feature distances as ``float.hex``."""
    return [
        (h.frame_id, h.distance.hex(), {n: d.hex() for n, d in h.per_feature.items()})
        for h in outcome
    ]


def _requests(system):
    """``(frame, vectors)``: range-index rows, and unsorted duplicate
    candidate ids, each ranking every candidate."""
    ids = system.feature_store.frame_ids()
    image = system.get_key_frame(ids[3])
    vectors = dict(system.feature_store.get(ids[-4]).features)
    candidates = [ids[9], ids[2], ids[9], ids[-1], ids[0], ids[2], ids[5]]
    return (
        QueryRequest(image=image, use_index=True, top_k=len(ids)),
        QueryRequest(query_vectors=vectors, candidate_ids=candidates, top_k=len(ids)),
    )


def _lanes(results):
    return results.explain["timings_ms"]["score_lanes"]


def test_the_plans_really_take_the_paths_named(monkeypatch, ingested_system, engine_for):
    """Frame rows come from the range index, vector rows are unsorted with
    duplicates; the explain names the lanes."""
    engine = engine_for()
    frame, vectors = _requests(ingested_system)
    plans = []
    real = engine._score_plans
    monkeypatch.setattr(engine, "_score_plans", lambda p: plans.extend(p) or real(p))
    _crossover(monkeypatch, 0)
    hits = engine.query_batch([frame, vectors])
    frame_plan, vector_plan = plans
    assert frame_plan.rows is not None and 0 < frame_plan.rows.size < len(engine.store)
    rows = vector_plan.rows
    assert np.any(np.diff(rows) < 0) and len(set(rows.tolist())) < rows.size
    lanes = 2 if _two_cpus() else 1
    assert [_lanes(r) for r in hits] == [lanes, lanes]
    _crossover(monkeypatch, NEVER)
    assert _lanes(engine.query_frame(frame.image)) == 1


def test_the_crossover_counts_rows_times_features(monkeypatch, ingested_system, engine_for):
    engine = engine_for()
    image = ingested_system.any_key_frame()
    n = len(engine.store)
    _crossover(monkeypatch, n * 2)
    lanes = 2 if _two_cpus() else 1
    assert _lanes(engine.query_frame(image, features=["sch", "glcm"], use_index=False)) == lanes
    assert _lanes(engine.query_frame(image, features=["sch"], use_index=False)) == 1


def test_callers_sharing_one_lane_get_their_own_answers(monkeypatch, ingested_system, engine_for):
    engine = engine_for()
    ids = ingested_system.feature_store.frame_ids()
    images = [ingested_system.get_key_frame(fid) for fid in ids[1:9:2]]
    _crossover(monkeypatch, NEVER)
    want = {i: _answer(engine.query_frame(image, top_k=len(ids))) for i, image in enumerate(images)}
    _crossover(monkeypatch, 0)
    got = {}

    def query(i):
        for _round in range(3):
            got.setdefault(i, []).append(_answer(engine.query_frame(images[i], top_k=len(ids))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=query, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == {i: [want[i]] * 3 for i in range(4)}


class _HalfFailure(RuntimeError):
    pass


class _Abort(BaseException):
    pass


def _patch_sch(monkeypatch, fail_on):
    """Make the ``sch`` kernel call ``fail_on(query, thread name)`` first;
    returns the names of the threads whose call finished."""
    real = SimpleColorHistogram.batch_distance_prepared
    done = []

    def patched(self, q, prepared, rows=None):
        fail_on(q, threading.current_thread().name)
        out = real(self, q, prepared, rows)
        done.append(threading.current_thread().name)
        return out

    monkeypatch.setattr(SimpleColorHistogram, "batch_distance_prepared", patched)
    return done


def _batch(system):
    """Three vector requests over the whole store; the middle one is marked."""
    ids = system.feature_store.frame_ids()
    vectors = [dict(system.feature_store.get(fid).features) for fid in (ids[1], ids[4], ids[7])]
    return [QueryRequest(query_vectors=v, top_k=len(ids)) for v in vectors]


def _is_marked(requests):
    marked = requests[1].query_vectors["sch"].values
    return lambda q: np.array_equal(q.values, marked)


@needs_two_cpus
def test_a_helper_half_error_fails_only_its_plan(monkeypatch, ingested_system, engine_for):
    engine = engine_for()
    requests = _batch(ingested_system)
    _crossover(monkeypatch, 0)
    want = [_answer(engine.query_with_vectors(r.query_vectors, top_k=r.top_k)) for r in requests]
    marked = _is_marked(requests)

    def helper_only(q, thread):
        if marked(q) and thread.startswith("repro-lane"):
            raise _HalfFailure("upper half")

    _patch_sch(monkeypatch, helper_only)
    first, failed, last = engine.query_batch(requests)
    assert type(failed) is _HalfFailure
    assert [_answer(first), _answer(last)] == [want[0], want[2]]


@needs_two_cpus
def test_the_helper_half_finishes_before_the_pass_returns(
    monkeypatch, ingested_system, engine_for
):
    engine = engine_for()
    requests = _batch(ingested_system)
    _crossover(monkeypatch, 0)
    marked = _is_marked(requests)

    def calling_fails(q, thread):
        if thread.startswith("repro-lane"):
            time.sleep(0.01)
        elif marked(q):
            raise _HalfFailure("lower half")

    done = _patch_sch(monkeypatch, calling_fails)
    outcomes = engine.query_batch(requests)
    assert type(outcomes[1]) is _HalfFailure
    assert sum(n.startswith("repro-lane") for n in done) == 3  # every upper half
    finished = len(done)
    time.sleep(0.05)
    assert len(done) == finished

    def calling_aborts(q, thread):
        if thread.startswith("repro-lane"):
            time.sleep(0.01)
        else:
            raise _Abort()

    done = _patch_sch(monkeypatch, calling_aborts)
    with pytest.raises(_Abort):
        engine.query_batch(requests)
    assert len(done) == 3  # the helper's halves ran to the end before the unwind
    time.sleep(0.05)
    assert len(done) == 3


@pytest.mark.parametrize("crossover", [0, NEVER])
def test_a_failing_prepared_stack_is_built_once_per_pass(
    monkeypatch, ingested_system, engine_for, crossover
):
    engine = engine_for()
    _crossover(monkeypatch, crossover)
    image = ingested_system.any_key_frame()
    clip = ingested_system.get_video_frames(2)[2:8]
    calls = []
    real = engine._prepared_matrix

    def failing(name):
        calls.append(name)
        if name == "sch":
            raise _HalfFailure("sch stack")
        return real(name)

    monkeypatch.setattr(engine, "_prepared_matrix", failing)
    frame, video, gabor = engine.query_batch(
        [
            QueryRequest(image=image),
            QueryRequest(clip=clip),
            QueryRequest(image=image, features=["gabor"]),
        ]
    )
    assert calls.count("sch") == 1 and len(calls) == len(set(calls))
    assert type(frame) is _HalfFailure and video is frame  # one error, every plan wanting sch
    assert gabor.hits and set(gabor.hits[0].per_feature) == {"gabor"}
