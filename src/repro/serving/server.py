"""The HTTP/1.1 front door: an asyncio listener over one retrieval system.

``POST /search`` takes the fast path: admission control (shed on
queue depth), then a :class:`~repro.core.search.QueryRequest` with an
already-ticking deadline goes through the :class:`MicroBatcher`, whose
engine thread scores whatever queued while the previous batch ran in
one ``engine.query_batch`` call and encodes each answer's JSON body
there too; the event loop keeps the sockets, admission, deadlines and
writes.  Every other route (``/metrics``, the admin routes, ...)
delegates to the :class:`~repro.web.api.CbvrApi` route table on an
executor thread.

The HTTP layer itself is deliberately small: request line + headers via
``readuntil``, body via Content-Length, keep-alive by default; framing it
refuses (400 / 413 / 431) is answered with the JSON error envelope and
``Connection: close``.  Errors go through the same
:func:`~repro.web.api.error_response_for` ladder as the route table,
plus one serving-only rung: an
:class:`~repro.serving.admission.OverloadedError` becomes 429 with a
``Retry-After`` header.  Overload never produces a 5xx or a hang.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
import urllib.parse
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.search import QueryRequest
from repro.core.system import VideoRetrievalSystem
from repro.serving.admission import AdmissionController, OverloadedError
from repro.serving.batcher import MicroBatcher
from repro.web.api import (
    ApiError,
    CbvrApi,
    error_response_for,
    parse_search_request,
    search_payload,
)

__all__ = ["AsyncCbvrServer"]

#: bodies larger than this are rejected before buffering (64 MiB)
_MAX_BODY = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

# status, content-type, payload, extra headers -- CbvrApi's FullResponse shape
_Reply = Tuple[int, str, bytes, Dict[str, str]]


class _SearchJob(NamedTuple):
    """One ``POST /search`` on its way through the batcher: the query and
    how its answer is to be encoded."""

    request: QueryRequest
    explain: bool

    @property
    def deadline(self):
        return self.request.deadline


class AsyncCbvrServer:
    """One retrieval system behind an asyncio listener."""

    def __init__(
        self, system: VideoRetrievalSystem, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        if system.config.shards > 1:  # an unsharded serve never imports the layer
            from repro.sharding import maybe_attach_sharded

            maybe_attach_sharded(system)
        self.system = system
        self.api = CbvrApi(system)
        self.host = host
        self.port = port
        self.admission = AdmissionController(system.config, obs=system.obs)
        self.batcher = MicroBatcher(self._execute_batch, obs=system.obs)
        self._server: Optional["asyncio.base_events.Server"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._clients: set = set()
        self._m_requests = system.obs.counter(
            "repro_serving_requests_total",
            "Requests handled by the asyncio front-end, by route and status.",
            labelnames=("route", "status"),
        )
        self._m_request_seconds = system.obs.histogram(
            "repro_serving_request_seconds",
            "Asyncio front-end wall time from read to response.",
            labelnames=("route",),
        )

    def _execute_batch(self, jobs: List[_SearchJob]) -> List[object]:
        """Score a batch, then encode each answer's response body: both on
        the engine thread, so the loop only writes bytes."""
        # Resolved per call: a snapshot restore / shard attach may swap engines.
        outcomes = self.system.engine.query_batch([job.request for job in jobs])
        bodies: List[object] = []
        for job, outcome in zip(jobs, outcomes):
            if not isinstance(outcome, BaseException):
                try:
                    outcome = json.dumps(search_payload(outcome, job.explain)).encode()
                except Exception as exc:  # noqa: BLE001 -- this request's failure alone
                    outcome = exc
            bodies.append(outcome)
        return bodies

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.batcher.start()
        try:
            self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        except BaseException:  # e.g. the port is taken: leave no engine thread behind
            await self.batcher.stop()
            raise
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop_async(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Keep-alive clients may still be parked on readuntil(): cancel them
        # so the loop closes clean instead of destroying pending tasks.
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        await self.batcher.stop()

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def serve_blocking(self) -> None:
        """CLI entry point: run the event loop on this thread until killed."""
        asyncio.run(self.serve_forever())

    def start_in_thread(self) -> str:
        """Run the server on a daemon-thread event loop; return its base URL.

        The shape tests and the load gate use: start, hammer over real
        sockets, :meth:`stop`.  A start that fails (the port is taken, say)
        raises its exception here, with no loop or engine thread left.
        """
        started = threading.Event()
        failed: List[BaseException] = []
        loop = asyncio.new_event_loop()
        self._loop = loop

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except Exception as exc:  # handed to the starting thread
                failed.append(exc)
            started.set()
            if not failed:
                loop.run_forever()
                loop.run_until_complete(self.stop_async())
            loop.close()

        thread = threading.Thread(target=run, name="repro-serving", daemon=True)
        thread.start()
        started.wait(timeout=10)
        if failed:
            thread.join()
            raise failed[0]
        self._thread = thread
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread."""
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._thread = None

    # -- connection handling ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ApiError as exc:  # refused framing: answer, then hang up
                    response, extra = error_response_for(exc, "(framing)")
                    self._m_requests.labels(route="(framing)", status=str(response[0])).inc()
                    await self._write_response(writer, (*response, extra), False)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                parsed = urllib.parse.urlsplit(target)
                query = dict(urllib.parse.parse_qsl(parsed.query))
                keep_alive = headers.get("connection", "").lower() != "close"
                path = parsed.path.rstrip("/") or "/"
                if method == "POST" and path == "/search":
                    reply = await self._handle_search(body, query)
                else:
                    reply = await self._handle_blocking(method, parsed.path, body, headers, query)
                await self._write_response(writer, reply, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Only stop_async() cancels us; end normally so the streams
            # done-callback doesn't re-raise into the loop's handler.
            pass
        finally:
            if task is not None:
                self._clients.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """One parsed request, None when the peer is gone, or an
        :class:`ApiError` (400 / 413 / 431) for framing not served."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise ApiError(431, "request header block too large") from None
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 3:
            raise ApiError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            raise ApiError(400, "Content-Length is not a number") from None
        if length < 0:
            raise ApiError(400, "Content-Length is negative")
        if length > _MAX_BODY:
            raise ApiError(413, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, reply: _Reply, keep_alive: bool
    ) -> None:
        status, content_type, payload, extra = reply
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()

    # -- routes ----------------------------------------------------------------

    async def _handle_search(self, body: bytes, query: Dict[str, str]) -> _Reply:
        t0 = time.perf_counter()
        try:
            self.admission.admit(self.batcher.depth, self.batcher.service_seconds)
            image, feature_list, top_k, explain = parse_search_request(body, query)
            request = QueryRequest(
                image=image,
                features=feature_list,
                top_k=top_k,
                # Created here, not in the engine: queue wait burns budget.
                deadline=self.system.resilience.new_deadline(),
            )
            payload = await self.batcher.submit(_SearchJob(request, explain))
            reply: _Reply = (200, "application/json", payload, {})
        except OverloadedError as exc:
            body_429 = json.dumps(
                {
                    "error": str(exc),
                    "error_type": "overloaded",
                    "retry_after": exc.retry_after,
                }
            ).encode()
            reply = (429, "application/json", body_429, {"Retry-After": str(exc.retry_after)})
        except Exception as exc:  # noqa: BLE001 -- same last-resort ladder as CbvrApi
            response, headers = error_response_for(exc, "/search")
            reply = (*response, headers)
        self._m_requests.labels(route="/search", status=str(reply[0])).inc()
        self._m_request_seconds.labels(route="/search").observe(time.perf_counter() - t0)
        return reply

    async def _handle_blocking(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
        query: Dict[str, str],
    ) -> _Reply:
        assert self._loop is not None
        ctx = contextvars.copy_context()
        call = partial(
            ctx.run, self.api.handle_full, method, path, body=body, headers=headers, query=query
        )
        status, content_type, payload, extra = await self._loop.run_in_executor(None, call)
        self._m_requests.labels(route="(blocking)", status=str(status)).inc()
        return status, content_type, payload, extra
