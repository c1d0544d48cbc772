"""Load generation for ``serve_1k``: the server subprocess and its client.

The server under test is ``python -m repro serve <library> --async`` in
its own process, so it never shares an interpreter (or a GIL) with the
load generator.  The client is this process: at most
``min(nproc, 2)`` threads, one keep-alive connection each.

*Closed loop*: a connection sends its next request when the previous
answer arrived -- a slow server receives less load.  *Open loop*: request
``i`` is due at ``t0 + i / rate`` whatever the server does; its latency
is counted **from when it was due**, so a stall is charged to every
request it delays, and how late the generator itself sent is reported.
"""

from __future__ import annotations

import http.client
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import env
import plan
from measure import median, over_blocks, p95, peak_rss_mb

SEARCH_TARGET = f"/search?top_k={plan.TOP_K}"
#: statuses by which the server refuses work (shed / deadline)
REFUSED = (429, 504)


def connections() -> int:
    return max(1, min(os.cpu_count() or 1, 2))


@dataclass
class Sample:
    """One request's outcome.  ``latency_ms`` counts from ``due``."""

    index: int
    status: int  # 0 = transport failure
    latency_ms: float
    lateness_ms: float = 0.0
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.samples)

    @property
    def ok(self) -> int:
        return sum(1 for s in self.samples if s.ok)

    @property
    def refused(self) -> int:
        return sum(1 for s in self.samples if s.status in REFUSED)

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    def latencies_ms(self) -> List[float]:
        """Of the OK answers, in request order."""
        return [s.latency_ms for s in self.samples if s.ok]


# -- the server process -------------------------------------------------------------


class ServerProcess:
    """``repro serve --async`` as a child; always reaped on exit."""

    def __init__(self, library: str):
        self.library = library
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        self.port = _free_port()
        child_env = dict(os.environ, PYTHONPATH=env.SRC_DIR)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.library,
             "--async", "--port", str(self.port)],
            env=child_env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def first_answer(self, body: bytes, timeout_s: float = 60.0) -> bytes:
        """Poll until ``POST /search`` answers 200; returns that answer."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc is None or self.proc.poll() is not None:
                raise RuntimeError("the server exited before answering")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                try:
                    conn.request("POST", SEARCH_TARGET, body=body)
                    response = conn.getresponse()
                    payload = response.read()
                finally:
                    conn.close()
                if response.status == 200:
                    return payload
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError(f"no 200 from the server within {timeout_s:.0f} s")

    def get(self, target: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET {target} -> {response.status}")
        return payload

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb(proc.pid))
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _free_port() -> int:
    # `repro serve --port 0` prints "port 0": the port has to be ours to know
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- the client ------------------------------------------------------------------------


def _post(conn: http.client.HTTPConnection, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", SEARCH_TARGET, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def _drive(
    port: int, bodies: Sequence[bytes], n_connections: int, rate_qps: Optional[float]
) -> LoopResult:
    """Send every body once over ``n_connections`` keep-alive connections.

    Each thread takes the next unsent index when it is free.  With
    ``rate_qps`` (open loop) it first sleeps until that request is due and
    times it from then; without (closed loop) it sends at once.
    """
    samples: List[Optional[Sample]] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = [0]
    errors: List[BaseException] = []
    # open loop: request i is due at origin + i / rate; the margin lets
    # every thread reach its first sleep before anything is due
    origin = time.perf_counter() + (0.05 if rate_qps else 0.0)

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(bodies):
                    return
                if rate_qps:
                    start = origin + i / rate_qps
                    wait = start - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = time.perf_counter()
                else:
                    start = sent = time.perf_counter()
                try:
                    status, payload = _post(conn, bodies[i])
                except (OSError, http.client.HTTPException):
                    status, payload = 0, b""
                    conn.close()  # http.client reconnects on the next request
                done = time.perf_counter()
                samples[i] = Sample(
                    index=i,
                    status=status,
                    latency_ms=(done - start) * 1000.0,
                    lateness_ms=(sent - start) * 1000.0,
                    body=payload,
                )
        except Exception as exc:  # re-raised by the caller, not lost in a thread
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(n_connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return LoopResult(samples=samples, wall_s=time.perf_counter() - origin)


def closed_loop(
    port: int, bodies: Sequence[bytes], n_connections: Optional[int] = None
) -> LoopResult:
    return _drive(port, bodies, n_connections or connections(), None)


def open_loop(
    port: int, bodies: Sequence[bytes], rate_qps: float, n_connections: Optional[int] = None
) -> LoopResult:
    return _drive(port, bodies, n_connections or connections(), rate_qps)


@dataclass
class RungVerdict:
    rate_qps: float
    sent: int
    ok: int
    refused: int
    achieved_qps: float
    #: from-due latencies, median block (``measure.over_blocks``): one
    #: machine stall must not fail a rung, a growing backlog fails every block
    p50_ms: float
    p95_ms: float
    lateness_p95_ms: float
    passed: bool


def judge_rung(rate_qps: float, result: LoopResult) -> RungVerdict:
    """A rung holds when its p95-from-due meets the SLO, nothing failed and
    the achieved rate kept up with the offered one."""
    latencies = result.latencies_ms()
    achieved = result.ok / result.wall_s if result.wall_s > 0 else 0.0
    tail = over_blocks(latencies, p95) if latencies else float("inf")
    return RungVerdict(
        rate_qps=rate_qps,
        sent=result.sent,
        ok=result.ok,
        refused=result.refused,
        achieved_qps=achieved,
        p50_ms=over_blocks(latencies, median) if latencies else float("inf"),
        p95_ms=tail,
        lateness_p95_ms=p95([s.lateness_ms for s in result.samples]),
        passed=(
            result.failed == 0
            and tail <= plan.SLO_P95_MS
            and achieved >= plan.SLO_ACHIEVED_SHARE * rate_qps
        ),
    )
