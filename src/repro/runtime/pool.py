"""The execution layer: one helper thread, and persistent worker processes.

:class:`WorkerPool` gives the pipeline two kinds of parallelism:

- :meth:`WorkerPool.lane`, one helper *thread* for NumPy work that
  releases the GIL, beside the calling thread -- parallelism that needs
  no pickling and no worker process.  Two callers use it: frame analysis
  (the Gabor bank, ``repro.core.lanes``) and a query's scoring pass (the
  upper half of the candidate rows, ``SearchEngine._score_plans``).
- :meth:`WorkerPool.submit`, one long-lived task shipped to the pool's
  persistent worker processes (the sharded scatter-gather path).  An
  unpicklable task or a broken pool degrades to running the task
  in-process instead of erroring; exceptions raised *by the task function
  itself* always propagate.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor  # BrokenProcessPool's base
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from repro.obs import NULL_OBS, Obs, log

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

__all__ = ["WorkerPool", "PoolTask"]

_log = log.get_logger(__name__)

R = TypeVar("R")


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _is_picklable(obj: object) -> bool:
    """Whether ``obj`` survives the trip to a worker process."""
    try:
        pickle.dumps(obj)
        return True
    except (pickle.PicklingError, TypeError, AttributeError):
        return False


class PoolTask:
    """Handle for one :meth:`WorkerPool.submit` call.

    ``result()`` blocks until the task finishes and returns its value.
    Exceptions raised by the task function propagate unchanged;
    infrastructure failures (a dead worker process, an unpicklable
    result) are redone in-process.  A handle created without a future runs the task
    in-process, lazily, on the first ``result()`` call -- so a caller
    that fanned several submits out still overlaps the healthy ones.
    """

    __slots__ = ("_pool", "_fn", "_args", "_future", "_done", "_value", "_t0")

    def __init__(self, pool: "WorkerPool", fn, args, future=None):
        self._pool = pool
        self._fn = fn
        self._args = args
        self._future = future
        self._done = False
        self._value = None
        self._t0 = time.perf_counter()

    @property
    def inline(self) -> bool:
        """Whether this task runs (or ran) in-process instead of a worker."""
        return self._future is None

    def result(self):
        """The task's return value (blocks until available)."""
        if self._done:
            return self._value
        if self._future is None:
            mode = "inline"
            value = self._fn(*self._args)
        else:
            mode = "parallel"
            try:
                value = self._future.result()
            except (BrokenExecutor, pickle.PicklingError, OSError) as exc:
                # the worker died or the result refused to pickle; the
                # work itself is still valid, so redo it in-process
                self._pool.close()
                self._pool._m_fallbacks.labels(reason="broken_pool").inc()
                _log.warning(
                    "pool.task_redone_inline",
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._future = None
                mode = "redone"
                value = self._fn(*self._args)
        self._pool._m_task_seconds.labels(mode=mode).observe(
            time.perf_counter() - self._t0
        )
        self._value = value
        self._done = True
        return value


class WorkerPool:
    """One helper thread and, for :meth:`submit`, lazily-created worker processes.

    The executor is only spawned on the first :meth:`submit`, so a pool
    that only ever lends its :meth:`lane` (every system's pool) costs
    nothing but the helper thread, and that only once asked for.  Pools
    are reusable across calls; ``close()`` (or use as a context manager)
    tears the executor and the helper thread down.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lane: Optional[ThreadPoolExecutor] = None
        self._lane_lock = threading.Lock()
        self._lane_pid = os.getpid()
        self.attach_obs(NULL_OBS)

    def attach_obs(self, obs: Obs) -> None:
        """Bind this pool's dispatch metrics to an observability facade."""
        self._m_fallbacks = obs.counter(
            "repro_pool_fallbacks_total",
            "Submitted tasks that degraded to running in-process.",
            labelnames=("reason",),
        )
        self._m_submits = obs.counter(
            "repro_pool_submits_total",
            "Single-task submissions, by dispatch mode.",
            labelnames=("mode",),
        )
        self._m_task_seconds = obs.histogram(
            "repro_pool_task_seconds",
            "Submit-to-result wall time per single task, by dispatch mode.",
            labelnames=("mode",),
        )

    # -- lifecycle -----------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # here, not at module top: the import pulls in multiprocessing,
            # which a pool that only lends its lane never needs
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    @property
    def active(self) -> bool:
        """Whether a live executor (with worker processes) currently exists."""
        return self._executor is not None

    def lane(self) -> Optional[ThreadPoolExecutor]:
        """The helper thread for GIL-free work beside the calling thread.

        None when the process may run on one CPU only.  Created on first
        use and stopped by :meth:`close`.  A forked child forgets the
        parent's: an executor inherited across ``fork`` has no thread
        behind it, so work submitted to it would wait forever.
        """
        if _usable_cpus() < 2:
            return None
        self._forget_inherited_lane()
        with self._lane_lock:
            if self._lane is None:
                from concurrent.futures import ThreadPoolExecutor

                self._lane = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-lane"
                )
            return self._lane

    def _forget_inherited_lane(self) -> None:
        """In a forked child, drop the parent's lane and its lock (a thread
        may have held it at the fork): nothing inherited is usable."""
        if self._lane_pid != os.getpid():
            self._lane, self._lane_lock = None, threading.Lock()
            self._lane_pid = os.getpid()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._forget_inherited_lane()
        with self._lane_lock:
            lane, self._lane = self._lane, None
        if lane is not None:
            lane.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatch -------------------------------------------------------------

    def submit(self, fn: Callable[..., R], *args: object) -> PoolTask:
        """Dispatch one long-lived task to a worker process.

        A ``workers == 1`` pool still ships the task to its single
        *persistent* worker process -- that is the point:
        the process keeps what its tasks cache at module level (e.g. a
        memory-mapped shard snapshot) and the caller keeps submitting
        queries to it without re-forking.  The serial fallback only
        triggers for unpicklable tasks or broken infrastructure; task
        exceptions always propagate from the handle's ``result()``.
        """
        if not (_is_picklable(fn) and all(_is_picklable(a) for a in args)):
            self._m_fallbacks.labels(reason="unpicklable").inc()
            self._m_submits.labels(mode="inline").inc()
            return PoolTask(self, fn, args)
        try:
            future = self._ensure_executor().submit(fn, *args)
        except (BrokenExecutor, pickle.PicklingError, OSError) as exc:
            self.close()
            self._m_fallbacks.labels(reason="broken_pool").inc()
            _log.warning(
                "pool.submit_fallback_inline",
                error=f"{type(exc).__name__}: {exc}",
            )
            self._m_submits.labels(mode="inline").inc()
            return PoolTask(self, fn, args)
        self._m_submits.labels(mode="parallel").inc()
        return PoolTask(self, fn, args, future=future)

