"""The HTTP server over real sockets: happy path, route-table parity,
overload shedding (429 + Retry-After, counters matching), deadline
overruns mapping to 504, and typed replies to hostile framing."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.core.config import SystemConfig


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
    config = SystemConfig(workers=1, serving_queue_limit=2, serving_degrade_depth=0)
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


def test_degraded_admission_under_load(make_harness):
    config = SystemConfig(
        workers=1,
        serving_queue_limit=32,
        serving_degrade_depth=1,
        serving_degrade_features=1,
    )
    harness = make_harness(config, n_videos=2)
    body = harness.system.any_key_frame().encode("ppm")
    results = _burst_behind_blocker(
        harness, 12, "/search?top_k=3&explain=1", body, "repro_serving_admitted_total", 13
    )
    assert all(r[0] == 200 for r in results)
    degraded = [r for r in results if r[1].get("x-degraded") == "load"]
    # the blocker and the first arrival behind it saw an empty queue
    assert len(degraded) == 11
    for _, _, payload in degraded:
        assert payload["explain"]["features"] == list(config.features[:1])


def test_queue_wait_burns_request_deadline_to_504(make_harness):
    config = SystemConfig(
        workers=1, serving_queue_limit=64, serving_degrade_depth=0
    )
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
