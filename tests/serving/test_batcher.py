"""MicroBatcher edge cases, engine-free.

A stub ``execute`` stands in for ``engine.query_batch`` so these tests
pin the queueing mechanics alone: a lone request dispatching as a batch
of one with no timer, ``BATCH_MAX`` overflow splitting, cancelled and
deadline-expired requests leaving the batch before dispatch, and
per-request exception isolation (one poisoned query never fails its
batchmates), every batch on the one ``repro-engine`` thread, and a stop
that races a submit.  A queue is built by parking the engine thread on
an ``Event`` -- batches only form while the previous one is running.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.resilience import Deadline, DeadlineExceeded
from repro.serving import MicroBatcher
from repro.serving.batcher import BATCH_MAX


def _request(deadline=None, poisoned=False):
    """The only attribute the batcher reads off a request is ``deadline``."""
    return SimpleNamespace(deadline=deadline, poisoned=poisoned)


class _Recorder:
    """An ``execute`` stub recording batch sizes and echoing requests.

    With ``held=True`` every call parks on ``release`` after setting
    ``entered``, so whatever is submitted meanwhile queues up.
    """

    def __init__(self, outcome=None, held=False):
        self.batches = []
        self._outcome = outcome
        self.entered = threading.Event()
        self.release = threading.Event()
        if not held:
            self.release.set()

    def __call__(self, requests):
        self.batches.append(len(requests))
        self.entered.set()
        assert self.release.wait(timeout=10)
        if self._outcome is not None:
            return self._outcome(requests)
        return [("ok", id(r)) for r in requests]


async def _with_batcher(execute, body):
    batcher = MicroBatcher(execute)
    await batcher.start()
    try:
        return await body(batcher)
    finally:
        await batcher.stop()


async def _queued_behind_blocker(batcher, recorder, requests, while_queued=None):
    """Park the executor on one request, queue ``requests`` behind it,
    run ``while_queued(futures)``, release; returns the queued outcomes."""
    loop = asyncio.get_running_loop()
    blocker = asyncio.ensure_future(batcher.submit(_request()))
    assert await loop.run_in_executor(None, recorder.entered.wait, 10)
    futures = [asyncio.ensure_future(batcher.submit(r)) for r in requests]
    await asyncio.sleep(0)  # every submit has enqueued
    assert batcher.depth == len(requests)
    if while_queued is not None:
        await while_queued(futures)
    recorder.release.set()
    assert (await blocker)[0] == "ok"
    return await asyncio.gather(*futures, return_exceptions=True)


def test_lone_request_dispatches_as_batch_of_one():
    recorder = _Recorder()

    async def body(batcher):
        loop = asyncio.get_running_loop()
        timers = []
        call_at = loop.call_at  # call_later, and so sleep / wait_for, end here
        loop.call_at = lambda when, *args, **kw: timers.append(when) or call_at(when, *args, **kw)
        result = await batcher.submit(_request())
        assert timers == []  # nothing waited on a clock
        assert batcher.service_seconds > 0.0
        return result

    result = asyncio.run(_with_batcher(recorder, body))
    assert result[0] == "ok"
    assert recorder.batches == [1]


def test_batch_max_overflow_splits_into_multiple_batches():
    recorder = _Recorder(held=True)
    n = BATCH_MAX + 2

    async def body(batcher):
        return await _queued_behind_blocker(batcher, recorder, [_request() for _ in range(n)])

    results = asyncio.run(_with_batcher(recorder, body))
    assert len(results) == n and all(r[0] == "ok" for r in results)
    assert recorder.batches == [1, BATCH_MAX, 2]


def test_cancelled_request_leaves_the_batch():
    recorder = _Recorder(held=True)

    async def body(batcher):
        async def cancel_first(futures):
            futures[0].cancel()

        return await _queued_behind_blocker(
            batcher, recorder, [_request(), _request()], cancel_first
        )

    doomed, survivor = asyncio.run(_with_batcher(recorder, body))
    assert isinstance(doomed, asyncio.CancelledError)
    assert survivor[0] == "ok"
    assert recorder.batches == [1, 1]  # the blocker, then the survivor alone


def test_expired_deadline_fails_in_queue_without_dispatch():
    recorder = _Recorder(held=True)

    async def body(batcher):
        async def outwait_budget(futures):
            await asyncio.sleep(0.02)

        return await _queued_behind_blocker(
            batcher, recorder, [_request(deadline=Deadline(0.005)), _request()], outwait_budget
        )

    doomed, survivor = asyncio.run(_with_batcher(recorder, body))
    assert isinstance(doomed, DeadlineExceeded)
    assert doomed.stage == "serving.queue"
    assert survivor[0] == "ok"
    assert recorder.batches == [1, 1]  # the expired request never reached execute


def test_poisoned_request_does_not_fail_batchmates():
    def poison(requests):
        return [ValueError("poisoned") if r.poisoned else ("ok", id(r)) for r in requests]

    recorder = _Recorder(outcome=poison, held=True)

    async def body(batcher):
        requests = [_request(poisoned=True)] + [_request() for _ in range(3)]
        return await _queued_behind_blocker(batcher, recorder, requests)

    results = asyncio.run(_with_batcher(recorder, body))
    assert recorder.batches == [1, 4]
    assert isinstance(results[0], ValueError)
    assert [r[0] for r in results[1:]] == ["ok", "ok", "ok"]


def test_engine_level_failure_fails_the_whole_batch():
    def explode(requests):
        raise RuntimeError("store is gone")

    recorder = _Recorder(outcome=explode)

    async def body(batcher):
        futures = [asyncio.ensure_future(batcher.submit(_request())) for _ in range(3)]
        return await asyncio.gather(*futures, return_exceptions=True)

    results = asyncio.run(_with_batcher(recorder, body))
    assert all(isinstance(r, RuntimeError) for r in results)


def test_drain_only_mode_batches_whatever_is_queued():
    recorder = _Recorder()

    async def body(batcher):
        return await asyncio.gather(*(batcher.submit(_request()) for _ in range(5)))

    results = asyncio.run(_with_batcher(recorder, body))
    assert len(results) == 5
    assert sum(recorder.batches) == 5


def test_stop_fails_requests_queued_behind_shutdown():
    async def body():
        batcher = MicroBatcher(lambda requests: [("ok", 0)])
        await batcher.start()
        # The shutdown sentinel enqueues first; the request lands behind it
        # and must fail loudly instead of hanging its client forever.
        stop_task = asyncio.ensure_future(batcher.stop())
        doomed = asyncio.ensure_future(batcher.submit(_request()))
        await stop_task
        with pytest.raises(RuntimeError, match="batcher stopped"):
            await doomed

    asyncio.run(body())


def test_every_batch_runs_on_the_one_engine_thread():
    threads = []

    def execute(requests):
        threads.append(threading.current_thread())
        return [("ok", id(r)) for r in requests]

    async def body(batcher):
        for _ in range(3):
            assert (await batcher.submit(_request()))[0] == "ok"
        return threading.current_thread()

    loop_thread = asyncio.run(_with_batcher(execute, body))
    assert len(threads) == 3
    assert all(t is threads[0] for t in threads)  # consecutive batches share it
    assert threads[0].name == "repro-engine"
    assert threads[0] is not loop_thread
    assert not threads[0].is_alive()  # stop() joined it


def test_submit_racing_stop_fails_at_once_and_never_hangs():
    """A request queued ahead of ``stop()`` is answered; one submitted
    once ``stop()`` has begun fails at once -- while the engine thread is
    still busy -- instead of landing behind the shutdown sentinel."""
    recorder = _Recorder(held=True)

    async def body():
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher(recorder)
        await batcher.start()
        running = asyncio.ensure_future(batcher.submit(_request()))
        assert await loop.run_in_executor(None, recorder.entered.wait, 10)
        queued = asyncio.ensure_future(batcher.submit(_request()))
        stopping = asyncio.ensure_future(batcher.stop())
        late = asyncio.ensure_future(batcher.submit(_request()))
        with pytest.raises(RuntimeError, match="batcher stopped"):
            await asyncio.wait_for(late, 5)
        assert not stopping.done()  # the engine is still held
        recorder.release.set()
        await asyncio.wait_for(stopping, 10)
        with pytest.raises(RuntimeError, match="batcher stopped"):
            await batcher.submit(_request())
        return await running, await queued

    first, second = asyncio.run(body())
    assert first[0] == second[0] == "ok"
    assert recorder.batches == [1, 1]


def test_failing_execute_fails_its_batch_and_the_next_batch_runs():
    threads = []

    def explode_once(requests):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise RuntimeError("store is gone")
        return [("ok", id(r)) for r in requests]

    recorder = _Recorder(outcome=explode_once, held=True)

    async def body(batcher):
        failed = await _queued_behind_blocker(batcher, recorder, [_request() for _ in range(3)])
        return failed, await batcher.submit(_request())

    failed, after = asyncio.run(_with_batcher(recorder, body))
    assert recorder.batches == [1, 3, 1]
    assert all(isinstance(r, RuntimeError) for r in failed)
    assert after[0] == "ok"
    assert all(t is threads[0] for t in threads)
    assert threads[0].name == "repro-engine"


def test_concurrent_submits_under_fast_switching_each_get_their_own_answer():
    """Two hundred submits, a random fifth of them cancelled while queued,
    with the interpreter switching threads every microsecond: every
    survivor gets exactly its own answer, no batch exceeds ``BATCH_MAX``,
    and nothing is scored twice."""
    answered = []

    def execute(requests):
        answered.extend(id(r) for r in requests)
        return [("ok", id(r)) for r in requests]

    requests = [_request() for _ in range(200)]
    doomed = set(random.Random(5).sample(range(len(requests)), 40))

    async def body(batcher):
        tasks = [asyncio.ensure_future(batcher.submit(r)) for r in requests]
        await asyncio.sleep(0)
        for i in doomed:
            tasks[i].cancel()
        return await asyncio.wait_for(asyncio.gather(*tasks, return_exceptions=True), 30)

    recorder = _Recorder(outcome=execute)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = asyncio.run(_with_batcher(recorder, body))
    finally:
        sys.setswitchinterval(interval)
    assert max(recorder.batches) <= BATCH_MAX
    assert len(answered) == len(set(answered)) == sum(recorder.batches)
    for i, (request, result) in enumerate(zip(requests, results)):
        if i in doomed:
            assert isinstance(result, asyncio.CancelledError)
        else:
            assert result == ("ok", id(request))
