"""The HTTP server over real sockets: happy path, route-table parity,
overload shedding (429 + Retry-After, counters matching), deadline
overruns mapping to 504, typed replies to hostile framing, clients
that stall mid-request or vanish mid-batch, and a start on a taken port."""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.core.config import SystemConfig
from repro.serving import AsyncCbvrServer


def _search_body(harness):
    return harness.system.any_key_frame().encode("ppm")


def _burst(harness, n, path, body):
    results = [None] * n

    def worker(i):
        results[i] = harness.request("POST", path, body=body)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def test_search_matches_blocking_api(harness):
    body = _search_body(harness)
    status, _, payload = harness.request("POST", "/search?top_k=5", body=body)
    assert status == 200
    blocking = harness.server.api.handle("POST", "/search", body=body, query={"top_k": "5"})
    reference = json.loads(blocking[2])
    assert payload["results"] == reference["results"]
    assert payload["n_candidates"] == reference["n_candidates"]


def test_keep_alive_and_cache_interplay(harness):
    body = _search_body(harness)
    conn = harness.connection()
    try:
        status, _, first = harness.request(
            "POST", "/search?top_k=3&explain=1", body=body, conn=conn
        )
        assert status == 200
        status, _, second = harness.request(
            "POST", "/search?top_k=3&explain=1", body=body, conn=conn
        )
        assert status == 200
        assert second["explain"]["cache"] == "hit"
        assert [r["frame_id"] for r in first["results"]] == [
            r["frame_id"] for r in second["results"]
        ]
    finally:
        conn.close()


def test_concurrent_burst_all_succeed_and_batch(harness):
    body = _search_body(harness)
    batches_before = harness.metric_value("repro_serving_batches_total")
    results = _burst(harness, 8, "/search?top_k=4", body)
    assert all(r[0] == 200 for r in results)
    first = results[0][2]["results"]
    assert all(r[2]["results"] == first for r in results)
    assert harness.metric_value("repro_serving_batches_total") > batches_before


def test_blocking_routes_served_by_executor(harness):
    status, _, payload = harness.request("GET", "/videos")
    assert status == 200
    assert len(payload["videos"]) == harness.system.n_videos()
    status, _, _ = harness.request("GET", "/nope")
    assert status == 404


def test_blocking_route_runs_off_the_event_loop_thread(harness, monkeypatch):
    """``GET /videos`` reaches ``CbvrApi.handle_full`` on an executor
    thread: a blocking route on the loop's thread would stall every other
    client.  (``POST /search`` runs on ``repro-engine``: test_batcher.py.)"""
    api = harness.server.api
    real = api.handle_full
    route_threads = []

    def recording(*args, **kwargs):
        route_threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(api, "handle_full", recording)
    status, _, _ = harness.request("GET", "/videos")
    assert status == 200
    loop_thread = []
    seen = threading.Event()
    harness.server._loop.call_soon_threadsafe(
        lambda: (loop_thread.append(threading.current_thread()), seen.set())
    )
    assert seen.wait(timeout=10)
    assert len(route_threads) == 1
    assert route_threads[0] is not loop_thread[0]


def test_a_search_parked_in_the_engine_leaves_the_loop_answering(harness, monkeypatch):
    """Every query entry point runs through ``_run_requests``; parked there,
    a ``POST /search`` must not hold the event loop: ``GET /`` answers
    within a second.  An engine call on the loop (``self.system.search``
    in ``_handle_search``) fails this."""
    engine = harness.system.engine
    real = engine._run_requests
    entered, release = threading.Event(), threading.Event()

    def parked(requests, span):
        entered.set()
        release.wait(timeout=30)
        return real(requests, span)

    monkeypatch.setattr(engine, "_run_requests", parked)
    blocker = _start(harness, "/search?top_k=3", _search_body(harness))
    box = []
    try:
        assert entered.wait(timeout=10)
        getter = threading.Thread(target=lambda: box.append(harness.request("GET", "/")))
        getter.start()
        getter.join(timeout=1.0)
        answered = list(box)
    finally:
        release.set()
    getter.join(timeout=30)
    assert blocker()[0] == 200
    assert [reply[0] for reply in answered] == [200]


def test_bad_request_maps_to_400(harness):
    status, _, _ = harness.request("POST", "/search", body=b"not an image")
    assert status == 400
    status, _, payload = harness.request("POST", "/search", body=b"")
    assert status == 400
    assert payload["error_type"] in ("api_error", "bad_request")


def _start(harness, path, body):
    """One request on its own thread; ``join()`` returns its response."""
    box = []
    thread = threading.Thread(target=lambda: box.append(harness.request("POST", path, body=body)))
    thread.start()

    def join():
        thread.join(timeout=30)
        assert box, "request never completed"
        return box[0]

    return join


def _burst_behind_blocker(harness, n, path, body, metric, value, hold=0.0):
    """Park the engine on one request, send ``n`` more behind it, wait until
    ``metric`` totals ``value`` (plus ``hold`` seconds), release; returns
    every response, the blocker's first."""
    entered, release = harness.hold_engine()
    blocker = _start(harness, path, body)
    assert entered.wait(timeout=10)  # the executor is busy: arrivals now queue
    burst = [_start(harness, path, body) for _ in range(n)]
    harness.wait_for_metric(metric, value)
    time.sleep(hold)
    release.set()
    return [blocker()] + [join() for join in burst]


def test_overload_sheds_429_never_5xx(make_harness):
    """A saturating burst against a tiny queue behind a busy engine: every
    response is 200 or 429, every 429 carries Retry-After, nothing hangs,
    and the server's shed counter equals the client-observed rejection
    count."""
    config = SystemConfig(serving_queue_limit=2)
    harness = make_harness(config, n_videos=2)
    body = harness.system.any_key_frame().encode("ppm")
    # two fit the queue; the other fourteen are answered at once
    results = _burst_behind_blocker(
        harness, 16, "/search?top_k=3", body, "repro_serving_shed_total", 14
    )
    statuses = [r[0] for r in results]
    assert set(statuses) <= {200, 429}
    assert statuses.count(200) == 3
    shed_observed = statuses.count(429)
    assert shed_observed == 14
    for status, headers, payload in results:
        if status == 429:
            assert int(headers["retry-after"]) >= 1
            assert payload["error_type"] == "overloaded"
    assert harness.metric_value("repro_serving_shed_total") == shed_observed


def test_queue_wait_burns_request_deadline_to_504(make_harness):
    config = SystemConfig(serving_queue_limit=64)
    harness = make_harness(config, n_videos=2)
    # Armed after ingest so only serving pays the (tiny) budget.
    harness.system.resilience.request_deadline = 0.05
    body = harness.system.any_key_frame().encode("ppm")
    # held 0.1 s once both are admitted: the queue wait alone out-waits the budget
    _, (status, _, payload) = _burst_behind_blocker(
        harness, 1, "/search?top_k=3", body, "repro_serving_admitted_total", 2, hold=0.1
    )
    assert status == 504
    assert payload["error_type"] == "deadline_exceeded"
    assert "serving.queue" in payload["error"]
    assert harness.metric_value("repro_serving_expired_total") == 1


@pytest.mark.parametrize(
    "raw, status",
    [
        (b"POST /search HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /search HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST /search HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n", 431),
    ],
    ids=["length-not-a-number", "length-negative", "length-over-limit",
         "short-request-line", "header-block-over-limit"],
)
def test_hostile_framing_gets_a_typed_reply(harness, raw, status):
    host, port = harness.netloc.split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(raw)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        assert response.status == status
        assert response.getheader("Connection") == "close"
        assert payload["error_type"] == "api_error" and payload["error"]
        assert sock.recv(1) == b""  # and the server hung up
    assert harness.request("GET", "/")[0] == 200  # the next connection is served


# -- hostile clients: stalled framing, and peers that vanish mid-batch -------------


def _raw_search(netloc, body, top_k=3):
    """``POST /search`` on its own connection: ``(status, raw body bytes)``."""
    conn = http.client.HTTPConnection(netloc, timeout=30)
    try:
        conn.request("POST", f"/search?top_k={top_k}", body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _open(netloc):
    host, port = netloc.split(":")
    return socket.create_connection((host, int(port)), timeout=10)


def _search_bytes(body, length=None):
    length = len(body) if length is None else length
    head = f"POST /search?top_k=3 HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
    return head.encode("latin-1") + body


def test_slow_loris_clients_neither_block_others_nor_stop(make_harness):
    """One client stalls inside its header block, another ten bytes into
    the hundred its Content-Length promises: a third client's search is
    answered exactly as on an idle server, and ``stop()`` still returns
    within its join timeout with both stalled connections open."""
    harness = make_harness(SystemConfig(query_cache_size=0), n_videos=2)
    body = _search_body(harness)
    idle = _raw_search(harness.netloc, body)
    assert idle[0] == 200
    half_header, short_body = _open(harness.netloc), _open(harness.netloc)
    try:
        half_header.sendall(b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Le")
        short_body.sendall(_search_bytes(body[:10], length=100))
        time.sleep(0.2)  # both are parked in the server's reads
        assert _raw_search(harness.netloc, body) == idle
        assert harness.request("GET", "/")[0] == 200
        thread = harness.server._thread
        t0 = time.monotonic()
        harness.server.stop()
        assert time.monotonic() - t0 < 10.0  # stop()'s join timeout
        assert not thread.is_alive()
    finally:
        half_header.close()
        short_body.close()


def test_clients_vanishing_mid_batch_leave_the_batch_its_answers(make_harness, small_corpus):
    """Several clients post searches and drop their sockets (half with a
    reset) while the requests wait in the queue: the request batched with
    them gets its solo answer, and the server keeps serving."""
    harness = make_harness(SystemConfig(query_cache_size=0), n_videos=2)
    body = _search_body(harness)
    others = [video.frames[1].encode("ppm") for video in small_corpus[:4]]
    solo = _raw_search(harness.netloc, body)
    assert solo[0] == 200
    admitted = harness.metric_value("repro_serving_admitted_total")
    batches = harness.metric_value("repro_serving_batches_total")

    entered, release = harness.hold_engine()
    blocker = _start(harness, "/search?top_k=3", body)
    assert entered.wait(timeout=10)  # the executor is busy: arrivals now queue
    vanishing = [_open(harness.netloc) for _ in others]
    for sock, other in zip(vanishing, others):
        sock.sendall(_search_bytes(other))
    harness.wait_for_metric("repro_serving_admitted_total", admitted + 1 + len(others))
    for i, sock in enumerate(vanishing):
        if i % 2:  # an abortive close: the peer sees a reset, not a FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
    box = []
    survivor = threading.Thread(target=lambda: box.append(_raw_search(harness.netloc, body)))
    survivor.start()
    harness.wait_for_metric("repro_serving_admitted_total", admitted + 2 + len(others))
    release.set()
    survivor.join(timeout=30)
    assert box == [solo]
    assert blocker()[0] == 200
    # the queued requests went out in one batch after the blocker's
    assert harness.metric_value("repro_serving_batches_total") == batches + 2
    assert _raw_search(harness.netloc, body) == solo
    assert harness.request("GET", "/videos")[0] == 200


def test_start_on_a_port_in_use_raises_at_once_and_leaves_no_thread(serving_system):
    """A listener that cannot bind hands its ``OSError`` to the caller of
    ``start_in_thread`` without waiting out the start timeout, and neither
    the loop thread nor the engine thread outlives the failed start."""
    before = set(threading.enumerate())
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        server = AsyncCbvrServer(serving_system, port=taken.getsockname()[1])
        t0 = time.monotonic()
        with pytest.raises(OSError):
            server.start_in_thread()
        assert time.monotonic() - t0 < 2.0
    left = [t.name for t in set(threading.enumerate()) - before if t.is_alive()]
    assert not {"repro-engine", "repro-serving"} & set(left), left
    server.stop()  # a no-op, as for a server never started
