"""Unit tests for the repro.runtime execution layer."""

import multiprocessing
import os
import sys
import threading

import pytest

from repro.runtime import WorkerPool, parallel_map, resolve_workers
from repro.runtime.pool import WORKERS_ENV_VAR


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"task failed on {x}")


class TestResolveWorkers:
    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_one_is_serial(self):
        assert resolve_workers(1) == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(0) == max(1, os.cpu_count() or 1)

    def test_none_means_auto(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers(0) == 5

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestWorkerPool:
    def test_serial_map(self):
        with WorkerPool(workers=1) as pool:
            assert pool.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_preserves_order(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_square, list(range(20))) == [x * x for x in range(20)]

    def test_parallel_pool_is_reusable(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            assert pool.map(_square, [5, 6]) == [25, 36]

    def test_empty_items(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_square, []) == []

    def test_single_item_stays_serial(self):
        pool = WorkerPool(workers=4)
        try:
            assert pool.map(_square, [7]) == [49]
            assert pool._executor is None  # never spawned
        finally:
            pool.close()

    def test_unpicklable_fn_falls_back_to_serial(self):
        calls = []

        def local_fn(x):  # closures cannot be pickled
            calls.append(x)
            return x + 1

        with WorkerPool(workers=2) as pool:
            assert pool.map(local_fn, [1, 2, 3]) == [2, 3, 4]
        assert calls == [1, 2, 3]

    def test_task_exception_propagates(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(RuntimeError, match="task failed"):
                pool.map(_boom, [1, 2, 3])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(workers=2, chunk_size=0)


def test_parallel_map_convenience():
    assert parallel_map(_square, [2, 3], workers=2) == [4, 9]


def _pid():
    return os.getpid()


def _set_token(value):
    os.environ["REPRO_POOL_TEST_TOKEN"] = value


def _read_token():
    return os.environ.get("REPRO_POOL_TEST_TOKEN")


class TestSubmit:
    def test_result_value_and_memoization(self):
        with WorkerPool(workers=1) as pool:
            task = pool.submit(_square, 6)
            assert task.result() == 36
            assert task.result() == 36  # cached, not recomputed

    def test_ships_to_persistent_worker_even_when_serial(self):
        # unlike map, workers=1 still dispatches: the point of submit is
        # pinning per-process state in one long-lived worker
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

    def test_none_with_worker_processes(self):
        with WorkerPool(workers=2) as pool:
            assert pool.lane() is None

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
