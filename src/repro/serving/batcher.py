"""The serving dispatcher: one engine thread scores batch after batch.

Requests land on an (unbounded) thread-safe queue -- admission control
in front of :meth:`MicroBatcher.submit` is what bounds it.  One daemon
thread, ``repro-engine``, blocks on the first request, takes up to
``BATCH_MAX - 1`` more that are already queued, and scores them; it
never waits for batchmates, so a lone request is a batch of one and
batches only form while the thread is busy with the previous one.  Once
a batch is answered the thread takes the next at once: nothing goes
back through the event loop between batches, which keeps only sockets,
admission, deadlines and writes.  Before scoring, requests whose client
cancelled or whose deadline already expired while queueing are dropped
from the batch (the latter fail with
:class:`~repro.resilience.DeadlineExceeded` -- queue wait counts against
the request budget).  The surviving batch runs through ``execute``
under a ``serving.batch`` span, and per-request outcomes are set on the
requests' futures.

Batching never changes rankings: ``query_batch`` runs the identical
per-query kernels as serial execution, so results are byte-identical
(property-tested in ``tests/serving/``).  What a batch shares is the
engine thread's wake-up and, for the sharded engine, one scatter per
shard per batch instead of one per request.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence

from repro.obs import NULL_OBS, Obs
from repro.resilience import DeadlineExceeded

__all__ = ["MicroBatcher"]

#: most requests one ``execute`` call takes; the rest stay queued
BATCH_MAX = 8

_SENTINEL = object()


class _Item:
    __slots__ = ("request", "future", "waiter", "enqueued")

    def __init__(self, request: object) -> None:
        self.request = request
        #: set by the engine thread
        self.future: Future = Future()
        #: what the client awaits on the loop
        self.waiter = asyncio.wrap_future(self.future)
        self.enqueued = time.perf_counter()


class MicroBatcher:
    """Coalesce concurrent requests into batched scoring calls.

    A request is anything with a ``deadline`` attribute (a
    :class:`~repro.core.search.QueryRequest`, or the server's job that
    carries one); ``execute`` answers a list of them with one outcome --
    a result or the exception that request raised -- per request.
    """

    def __init__(
        self,
        execute: Callable[[List[object]], Sequence[object]],
        obs: Obs = NULL_OBS,
    ) -> None:
        self._execute = execute
        self._obs = obs
        #: wall seconds per request of the last scored batch (0 before
        #: the first): what admission multiplies a backlog by for Retry-After
        self.service_seconds = 0.0
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
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
        self._thread = threading.Thread(target=self._serve, name="repro-engine", daemon=True)
        self._thread.start()

    async def stop(self) -> None:
        """Refuse new requests, let the engine thread finish what is
        queued ahead of the stop, join it, and fail anything left."""
        thread = self._thread
        if thread is None or self._closed:
            return
        self._closed = True
        self._queue.put(_SENTINEL)
        await asyncio.get_running_loop().run_in_executor(None, thread.join)
        self._thread = None
        # Fail anything still queued after shutdown rather than hanging clients.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not _SENTINEL and leftover.future.set_running_or_notify_cancel():
                leftover.future.set_exception(RuntimeError("serving batcher stopped"))

    async def submit(self, request: object) -> object:
        """Enqueue one request and await its result.

        Raises whatever the engine raised for this request -- batchmates
        are isolated; one poisoned query never fails the rest.
        """
        if self._closed:
            raise RuntimeError("serving batcher stopped")
        assert self._thread is not None, "MicroBatcher.start() was never awaited"
        item = _Item(request)
        self._queue.put(item)
        self._m_depth.set(self._queue.qsize())
        return await item.waiter

    def _serve(self) -> None:
        """The engine thread: take a batch, score it, take the next."""
        stopping = False
        while not stopping:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            batch = [item]
            while len(batch) < BATCH_MAX:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SENTINEL:
                    stopping = True
                    break
                batch.append(nxt)
            self._m_depth.set(self._queue.qsize())
            self._dispatch(batch)

    def _admit_to_batch(self, batch: List[_Item]) -> List[_Item]:
        live: List[_Item] = []
        for item in batch:
            # A client's cancel marks its waiter at once but reaches the
            # concurrent future only a loop turn later: read both.
            if item.waiter.cancelled() or not item.future.set_running_or_notify_cancel():
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

    def _dispatch(self, batch: List[_Item]) -> None:
        live = self._admit_to_batch(batch)
        if not live:
            return
        now = time.perf_counter()
        for item in live:
            self._m_queue_wait.observe(now - item.enqueued)
        self._m_batches.inc()
        self._m_batch_size.observe(len(live))
        try:
            outcomes = self._scored_batch([item.request for item in live])
        except Exception as exc:  # engine-level failure: fail the whole batch
            outcomes = [exc] * len(live)
        self.service_seconds = (time.perf_counter() - now) / len(live)
        for item, outcome in zip(live, outcomes):
            if isinstance(outcome, BaseException):
                item.future.set_exception(outcome)
            else:
                item.future.set_result(outcome)

    def _scored_batch(self, requests: List[object]) -> Sequence[object]:
        with self._obs.span("serving.batch", size=len(requests)) as span:
            outcomes = self._execute(requests)
            errors = sum(1 for o in outcomes if isinstance(o, BaseException))
            if errors:
                span.annotate(errors=errors)
        return outcomes
