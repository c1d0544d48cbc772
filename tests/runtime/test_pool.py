"""Unit tests for the repro.runtime execution layer."""

import multiprocessing
import os
import sys
import threading

import pytest

from repro.obs import Obs
from repro.runtime import WorkerPool


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"task failed on {x}")


class TestWorkerPool:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


def _pid():
    return os.getpid()


def _set_token(value):
    os.environ["REPRO_POOL_TEST_TOKEN"] = value


def _read_token():
    return os.environ.get("REPRO_POOL_TEST_TOKEN")


def _square_unless_in_a_child(parent_pid, x):
    if os.getpid() != parent_pid:
        os._exit(3)  # the worker process dies without a reply
    return x * x


class TestSubmit:
    def test_result_value_and_memoization(self):
        with WorkerPool(workers=1) as pool:
            task = pool.submit(_square, 6)
            assert task.result() == 36
            assert task.result() == 36  # cached, not recomputed

    def test_ships_to_persistent_worker_even_when_serial(self):
        # workers=1 still dispatches: the point of submit is pinning
        # per-process state in one long-lived worker
        with WorkerPool(workers=1) as pool:
            first = pool.submit(_pid)
            assert not first.inline
            worker_pid = first.result()
            assert worker_pid != os.getpid()
            assert pool.submit(_pid).result() == worker_pid  # same process

    def test_task_exception_propagates(self):
        with WorkerPool(workers=1) as pool:
            task = pool.submit(_boom, 3)
            with pytest.raises(RuntimeError, match="task failed on 3"):
                task.result()

    def test_unpicklable_fn_runs_inline_lazily(self):
        calls = []

        def local_fn(x):  # closures cannot be pickled
            calls.append(x)
            return x + 1

        with WorkerPool(workers=2) as pool:
            task = pool.submit(local_fn, 1)
            assert task.inline
            assert calls == []  # deferred until result() is asked for
            assert task.result() == 2
            assert calls == [1]

    def test_dead_worker_is_redone_inline(self):
        obs = Obs(enabled=True)
        with WorkerPool(workers=1) as pool:
            pool.attach_obs(obs)
            task = pool.submit(_square_unless_in_a_child, os.getpid(), 7)
            assert not task.inline
            assert task.result() == 49  # computed here, after the worker died
            assert task.inline
            assert not pool.active  # the broken executor was closed
        fam = obs.registry.render_json()["repro_pool_fallbacks_total"]
        assert {s["labels"]["reason"]: s["value"] for s in fam["samples"]} == {
            "broken_pool": 1
        }

    def test_worker_keeps_what_a_task_caches(self, monkeypatch):
        # what the shard workers rely on: state a task leaves in the
        # process (their mmapped partition) is there for the next task
        monkeypatch.delenv("REPRO_POOL_TEST_TOKEN", raising=False)
        with WorkerPool(workers=1) as pool:
            pool.submit(_set_token, "shard-state").result()
            assert pool.submit(_read_token).result() == "shard-state"
        assert _read_token() is None  # parent process untouched


def _two_cpus() -> bool:
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:
        return (os.cpu_count() or 1) >= 2


needs_two_cpus = pytest.mark.skipif(not _two_cpus(), reason="the lane needs a second CPU")


def _lane_answer_in_child(pool, conn):
    conn.send(pool.lane().submit(_square, 12).result())


class TestLane:
    @needs_two_cpus
    def test_created_once_and_stopped_by_close(self):
        pool = WorkerPool(workers=1)
        assert pool._lane is None  # lazily
        lane = pool.lane()
        assert lane is pool.lane()
        assert lane.submit(_square, 5).result() == 25
        (thread,) = lane._threads
        pool.close()
        assert pool._lane is None
        assert not thread.is_alive()

    def test_none_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with WorkerPool(workers=1) as pool:
            assert pool.lane() is None
            assert pool._lane is None

    @needs_two_cpus
    def test_forked_child_gets_its_own_lane(self):
        # an executor inherited across fork has no thread: submitting to the
        # parent's would wait forever, so the child must build a fresh one
        ctx = multiprocessing.get_context("fork")
        with WorkerPool(workers=1) as pool:
            assert pool.lane().submit(_square, 3).result() == 9
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_lane_answer_in_child, args=(pool, sender))
            child.start()
            child.join(60)
            if child.is_alive():
                child.kill()
                pytest.fail("the forked child hung on the inherited lane")
            assert child.exitcode == 0
            assert receiver.recv() == 144

    @needs_two_cpus
    def test_concurrent_first_use_creates_one_lane(self):
        pool = WorkerPool(workers=1)
        start = threading.Barrier(8)
        seen = []

        def first_use():
            start.wait(timeout=30)
            seen.append(pool.lane())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert len(seen) == 8 and len({id(lane) for lane in seen}) == 1
