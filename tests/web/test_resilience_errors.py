"""Web error mapping for resilience failures: 504, 503 + Retry-After,
and the JSON envelope on unexpected exceptions (never a body-less 500)."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.resilience import CircuitOpenError, DeadlineExceeded, RetryExhausted
from repro.web.api import CbvrApi


@pytest.fixture()
def api(small_corpus):
    system = VideoRetrievalSystem.in_memory(SystemConfig())
    system.login_admin().add_video(small_corpus[0])
    return CbvrApi(system)


def _json_full(response):
    status, ctype, body, headers = response
    assert ctype == "application/json"
    return status, json.loads(body), headers


def test_deadline_exceeded_maps_to_504(api, monkeypatch):
    def slow_search(*args, **kwargs):
        raise DeadlineExceeded("search.score", 0.1, 0.2)

    monkeypatch.setattr(api.system, "search", slow_search)
    image = api.system.any_key_frame().encode("ppm")
    status, payload, headers = _json_full(api.handle_full("POST", "/search", body=image))
    assert status == 504
    assert payload["error_type"] == "deadline_exceeded"
    assert "search.score" in payload["error"]
    assert "Retry-After" not in headers


def test_expired_request_deadline_end_to_end_504(small_corpus):
    system = VideoRetrievalSystem.in_memory(SystemConfig())
    system.login_admin().add_video(small_corpus[0])
    system.resilience.request_deadline = 1e-9  # arm after ingest
    api = CbvrApi(system)
    image = system.any_key_frame().encode("ppm")
    status, _, body, _ = api.handle_full("POST", "/search", body=image)
    assert status == 504
    assert json.loads(body)["error_type"] == "deadline_exceeded"


def test_circuit_open_maps_to_503_with_retry_after(api, monkeypatch):
    def refused(*args, **kwargs):
        raise CircuitOpenError("ann", 0.35)

    monkeypatch.setattr(api.system, "search", refused)
    image = api.system.any_key_frame().encode("ppm")
    status, payload, headers = _json_full(api.handle_full("POST", "/search", body=image))
    assert status == 503
    assert payload["error_type"] == "circuit_open"
    assert payload["retry_after"] == 1  # 0.35s rounded up to a whole second
    assert headers["Retry-After"] == "1"


def test_retry_exhausted_maps_to_503(api, monkeypatch):
    def exhausted(*args, **kwargs):
        raise RetryExhausted("db.execute", 3, RuntimeError("db down"))

    monkeypatch.setattr(api.system, "search", exhausted)
    image = api.system.any_key_frame().encode("ppm")
    status, payload, headers = _json_full(api.handle_full("POST", "/search", body=image))
    assert status == 503
    assert payload["error_type"] == "retry_exhausted"
    assert "Retry-After" not in headers


def test_unexpected_exception_returns_json_envelope_500(api, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(api.system, "search", broken)
    image = api.system.any_key_frame().encode("ppm")
    status, payload, headers = _json_full(api.handle_full("POST", "/search", body=image))
    assert status == 500
    # the exception is logged, not sent: the body carries no exception text
    assert payload == {"error": "internal server error", "error_type": "internal"}


def test_handle_is_handle_full_without_headers(api):
    full = api.handle_full("GET", "/")
    short = api.handle("GET", "/")
    assert full[:3] == short
    assert len(short) == 3  # existing callers keep unpacking 3-tuples


def test_http_server_sends_retry_after_header(small_corpus, monkeypatch, served):
    import http.client

    system = VideoRetrievalSystem.in_memory(SystemConfig())
    system.login_admin().add_video(small_corpus[0])
    netloc = served(system).split("//", 1)[1]

    def refused(*args, **kwargs):
        raise CircuitOpenError("ann", 2.0)

    monkeypatch.setattr(system.engine, "query_batch", refused)
    conn = http.client.HTTPConnection(netloc, timeout=5)
    conn.request("POST", "/search", body=system.any_key_frame().encode("ppm"))
    response = conn.getresponse()
    payload = json.loads(response.read())
    conn.close()
    assert response.status == 503
    assert response.getheader("Retry-After") == "2"
    assert payload["error_type"] == "circuit_open"
