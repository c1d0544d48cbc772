"""A deterministic process-pool ``map`` with graceful serial fallback.

The feature extractors are pure CPU-bound NumPy/Python code, so threads
buy nothing under the GIL; processes do.  :class:`WorkerPool` wraps
``concurrent.futures.ProcessPoolExecutor`` with the three guarantees the
pipeline needs:

1. **Deterministic ordering** -- results come back in input order, so a
   parallel ingest produces byte-identical feature strings to a serial
   one.
2. **Graceful fallback** -- ``workers == 1``, a single-item batch, an
   unpicklable task, or a broken pool all degrade to the plain serial
   loop instead of erroring.
3. **Chunked dispatch** -- items are shipped in chunks so per-task IPC
   overhead does not swamp short tasks.

Exceptions raised *by the task function itself* always propagate: only
infrastructure failures (pickling, dead workers) trigger the fallback.

A serial pool on a machine with a second core also owns one helper
*thread* (:meth:`WorkerPool.lane`): NumPy code that releases the GIL runs
there beside the calling thread, which is parallelism that needs no
pickling and no worker process.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor  # BrokenProcessPool's base
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, TypeVar

from repro.obs import NULL_OBS, Obs, log
from repro.resilience import NULL_POLICIES, FaultInjected, ResiliencePolicies

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

__all__ = ["WorkerPool", "PoolTask", "parallel_map", "resolve_workers"]

_log = log.get_logger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: environment override for the auto worker count (`workers=0` in config)
WORKERS_ENV_VAR = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Turn a ``workers`` knob into an effective worker count.

    ``None`` or ``0`` means *auto*: the ``REPRO_WORKERS`` environment
    variable if set, else the machine's CPU count.  Negative counts are
    rejected; the result is always >= 1.
    """
    if workers is None or workers == 0:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return max(1, workers)


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
    result) are redone in-process, mirroring :meth:`WorkerPool.map`'s
    fallback semantics.  A handle created without a future runs the task
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
    """Order-preserving chunked map over a lazily-created process pool.

    The executor is only spawned on the first parallel ``map`` call, so a
    pool configured with ``workers=1`` (the default everywhere) costs
    nothing but the helper thread of :meth:`lane`, and that only once
    asked for.  Pools are reusable across calls; ``close()`` (or use as a
    context manager) tears the executor and the helper thread down.
    """

    def __init__(self, workers: int = 1, chunk_size: Optional[int] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lane: Optional[ThreadPoolExecutor] = None
        self._lane_lock = threading.Lock()
        self._lane_pid = os.getpid()
        self._policies = NULL_POLICIES
        self.attach_obs(NULL_OBS)

    def attach_obs(self, obs: Obs) -> None:
        """Bind this pool's dispatch metrics to an observability facade."""
        obs.gauge(
            "repro_pool_workers", "Configured worker processes."
        ).set(self.workers)
        self._m_queue_depth = obs.gauge(
            "repro_pool_queue_depth", "Items queued in the in-flight map call."
        )
        self._m_map_items = obs.histogram(
            "repro_pool_map_items",
            "Batch size per map call.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0),
        )
        self._m_map_seconds = obs.histogram(
            "repro_pool_map_seconds",
            "Wall time per map call (chunked dispatch incl. result gather).",
            labelnames=("mode",),
        )
        self._m_fallbacks = obs.counter(
            "repro_pool_fallbacks_total",
            "Parallel map calls that degraded to the serial loop.",
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

    def attach_resilience(self, policies: ResiliencePolicies) -> None:
        """Fire ``policies``' ``pool.map`` fault point on every parallel
        dispatch (never on the serial path); a fired fault is handled like
        a broken pool: closed, and the work redone serially."""
        self._policies = policies

    # -- lifecycle -----------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # here, not at module top: the import pulls in multiprocessing,
            # which a serial pool (the default everywhere) never needs
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    @property
    def active(self) -> bool:
        """Whether a live executor (with worker processes) currently exists."""
        return self._executor is not None

    def lane(self) -> Optional[ThreadPoolExecutor]:
        """The helper thread for GIL-free work beside the calling thread.

        None when the process may run on one CPU only, and when
        ``workers > 1`` (the worker processes are the parallelism there).
        Created on first use and stopped by :meth:`close`.  A forked child
        forgets the parent's: an executor inherited across ``fork`` has no
        thread behind it, so work submitted to it would wait forever.
        """
        if self.workers > 1 or _usable_cpus() < 2:
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

    # -- the one operation ----------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """``[fn(x) for x in items]``, fanned out when it can be.

        Results are always in input order.  Falls back to the serial loop
        when the pool is serial, the batch is trivial, or the task cannot
        be shipped to workers; task exceptions propagate unchanged.
        """
        materialized = list(items)
        self._m_map_items.observe(len(materialized))
        t0 = time.perf_counter()
        if self.workers == 1 or len(materialized) <= 1:
            out = [fn(x) for x in materialized]
            self._m_map_seconds.labels(mode="serial").observe(
                time.perf_counter() - t0
            )
            return out
        if not (_is_picklable(fn) and _is_picklable(materialized[0])):
            self._m_fallbacks.labels(reason="unpicklable").inc()
            out = [fn(x) for x in materialized]
            self._m_map_seconds.labels(mode="serial").observe(
                time.perf_counter() - t0
            )
            return out
        chunk = self.chunk_size or max(
            1, -(-len(materialized) // (self.workers * 4))
        )
        self._m_queue_depth.set(len(materialized))
        try:
            self._policies.fire("pool.map")
            executor = self._ensure_executor()
            out = list(executor.map(fn, materialized, chunksize=chunk))
            self._m_map_seconds.labels(mode="parallel").observe(
                time.perf_counter() - t0
            )
            return out
        except (BrokenExecutor, pickle.PicklingError, OSError, FaultInjected) as exc:
            # infrastructure died (or a result refused to pickle); the
            # work itself is still valid, so redo it in-process
            self.close()
            self._m_fallbacks.labels(reason="broken_pool").inc()
            _log.warning(
                "pool.map_fallback_serial",
                error=f"{type(exc).__name__}: {exc}",
            )
            out = [fn(x) for x in materialized]
            self._m_map_seconds.labels(mode="serial").observe(
                time.perf_counter() - t0
            )
            return out
        finally:
            self._m_queue_depth.set(0)

    def submit(self, fn: Callable[..., R], *args: object) -> PoolTask:
        """Dispatch one long-lived task to a worker process.

        Unlike :meth:`map`, a ``workers == 1`` pool still ships the task
        to its single *persistent* worker process -- that is the point:
        the process keeps what its tasks cache at module level (e.g. a
        memory-mapped shard snapshot) and the caller keeps submitting
        queries to it without re-forking.  The serial fallback only
        triggers for unpicklable tasks or broken infrastructure; task
        exceptions always propagate from the handle's ``result()``.  The
        ``pool.map`` fault point covers this dispatch path too.
        """
        if not (_is_picklable(fn) and all(_is_picklable(a) for a in args)):
            self._m_fallbacks.labels(reason="unpicklable").inc()
            self._m_submits.labels(mode="inline").inc()
            return PoolTask(self, fn, args)
        try:
            self._policies.fire("pool.map")
            future = self._ensure_executor().submit(fn, *args)
        except (BrokenExecutor, pickle.PicklingError, OSError, FaultInjected) as exc:
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


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> List[R]:
    """One-shot :meth:`WorkerPool.map` (pool created and torn down here)."""
    with WorkerPool(workers=workers, chunk_size=chunk_size) as pool:
        return pool.map(fn, items)
