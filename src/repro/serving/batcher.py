"""The serving dispatcher: score whatever queued while the last batch ran.

Requests land on an (unbounded) asyncio queue -- admission control in
front of :meth:`MicroBatcher.submit` is what bounds it.  The run loop
blocks on the first request, takes up to ``BATCH_MAX - 1`` more that are
already queued, and dispatches; it never waits for batchmates, so a lone
request is a batch of one and batches only form while the executor is
busy with the previous one.  Before dispatch, requests whose future was
cancelled or whose deadline already expired while queueing are dropped
from the batch (the latter fail with
:class:`~repro.resilience.DeadlineExceeded` -- queue wait counts against
the request budget).  The surviving batch runs through
``engine.query_batch`` on an executor thread under a ``serving.batch``
span, and per-request outcomes are demultiplexed back onto the futures.

Batching never changes rankings: ``query_batch`` runs the identical
per-query kernels as serial execution, so results are byte-identical
(property-tested in ``tests/serving/``).  What a batch shares is the
executor hop and, for the sharded engine, one scatter per shard per
batch instead of one per request.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from functools import partial
from typing import Callable, List, Optional, Sequence

from repro.core.results import SearchResults
from repro.core.search import QueryRequest
from repro.obs import NULL_OBS, Obs
from repro.resilience import DeadlineExceeded

__all__ = ["MicroBatcher"]

#: most requests one ``query_batch`` call takes; the rest stay queued
BATCH_MAX = 8

_SENTINEL = object()


class _Item:
    __slots__ = ("request", "future", "enqueued")

    def __init__(self, request: QueryRequest, future: "asyncio.Future") -> None:
        self.request = request
        self.future = future
        self.enqueued = time.perf_counter()


class MicroBatcher:
    """Coalesce concurrent :class:`QueryRequest`\\ s into batched scoring calls."""

    def __init__(
        self,
        execute: Callable[[List[QueryRequest]], Sequence[object]],
        obs: Obs = NULL_OBS,
    ) -> None:
        self._execute = execute
        self._obs = obs
        #: wall seconds per request of the last dispatched batch (0 before
        #: the first): what admission multiplies a backlog by for Retry-After
        self.service_seconds = 0.0
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._task: Optional["asyncio.Task"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._m_depth = obs.gauge(
            "repro_serving_queue_depth", "Requests currently waiting in the serving queue"
        )
        self._m_queue_wait = obs.histogram(
            "repro_serving_queue_wait_seconds",
            "Time a request spent queued before its batch dispatched",
        )
        self._m_batches = obs.counter(
            "repro_serving_batches_total", "Batches dispatched to the engine"
        )
        self._m_batch_size = obs.histogram(
            "repro_serving_batch_size",
            "Requests per dispatched batch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._m_expired = obs.counter(
            "repro_serving_expired_total",
            "Requests whose deadline expired while waiting in the serving queue",
        )
        self._m_cancelled = obs.counter(
            "repro_serving_cancelled_total",
            "Requests cancelled by the client while waiting in the serving queue",
        )

    @property
    def depth(self) -> int:
        """Requests currently queued (the admission-control signal)."""
        return self._queue.qsize()

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._task = self._loop.create_task(self._run())

    async def stop(self) -> None:
        """Drain nothing further: flush what is queued, then stop the loop."""
        if self._task is None:
            return
        self._queue.put_nowait(_SENTINEL)
        await self._task
        self._task = None

    async def submit(self, request: QueryRequest) -> SearchResults:
        """Enqueue one request and await its demultiplexed result.

        Raises whatever the engine raised for this request -- batchmates
        are isolated; one poisoned query never fails the rest.
        """
        assert self._loop is not None, "MicroBatcher.start() was never awaited"
        future: "asyncio.Future" = self._loop.create_future()
        self._queue.put_nowait(_Item(request, future))
        self._m_depth.set(self._queue.qsize())
        return await future

    async def _run(self) -> None:
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _SENTINEL:
                break
            batch = [item]
            while len(batch) < BATCH_MAX and not self._queue.empty():
                nxt = self._queue.get_nowait()
                if nxt is _SENTINEL:
                    stopping = True
                    break
                batch.append(nxt)
            self._m_depth.set(self._queue.qsize())
            await self._dispatch(batch)
        # Fail anything still queued after shutdown rather than hanging clients.
        while not self._queue.empty():
            leftover = self._queue.get_nowait()
            if leftover is not _SENTINEL and not leftover.future.done():
                leftover.future.set_exception(RuntimeError("serving batcher stopped"))

    def _admit_to_batch(self, batch: List[_Item]) -> List[_Item]:
        live: List[_Item] = []
        for item in batch:
            if item.future.done() or item.future.cancelled():
                self._m_cancelled.inc()
                continue
            deadline = item.request.deadline
            if deadline is not None and deadline.expired():
                self._m_expired.inc()
                item.future.set_exception(
                    DeadlineExceeded("serving.queue", deadline.budget, deadline.elapsed())
                )
                continue
            live.append(item)
        return live

    async def _dispatch(self, batch: List[_Item]) -> None:
        assert self._loop is not None
        live = self._admit_to_batch(batch)
        if not live:
            return
        now = time.perf_counter()
        for item in live:
            self._m_queue_wait.observe(now - item.enqueued)
        self._m_batches.inc()
        self._m_batch_size.observe(len(live))
        requests = [item.request for item in live]
        # Copy the loop task's context so the batch span (and everything the
        # engine stitches under it) lands in this trace, not the executor
        # thread's leftover state.
        ctx = contextvars.copy_context()
        try:
            outcomes = await self._loop.run_in_executor(
                None, partial(ctx.run, self._scored_batch, requests)
            )
        except Exception as exc:  # engine-level failure: fail the whole batch
            outcomes = [exc] * len(live)
        self.service_seconds = (time.perf_counter() - now) / len(live)
        for item, outcome in zip(live, outcomes):
            if item.future.done():
                continue
            if isinstance(outcome, BaseException):
                item.future.set_exception(outcome)
            else:
                item.future.set_result(outcome)

    def _scored_batch(self, requests: List[QueryRequest]) -> Sequence[object]:
        with self._obs.span("serving.batch", size=len(requests)) as span:
            outcomes = self._execute(requests)
            errors = sum(1 for o in outcomes if isinstance(o, BaseException))
            if errors:
                span.annotate(errors=errors)
        return outcomes
