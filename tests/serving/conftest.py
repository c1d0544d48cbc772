"""Serving fixtures: systems sized for batching tests plus an HTTP helper."""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.serving import AsyncCbvrServer


def build_system(small_corpus, config: SystemConfig, n_videos: int = 4):
    system = VideoRetrievalSystem.in_memory(config)
    admin = system.login_admin()
    for video in small_corpus[:n_videos]:
        admin.add_video(video)
    return system


@pytest.fixture(scope="module")
def serving_system(small_corpus):
    """A module-shared system behind no server (engine-level tests)."""
    system = build_system(small_corpus, SystemConfig(workers=1))
    yield system
    system.close()


class ServerHarness:
    """One running asyncio server plus blunt HTTP client helpers."""

    def __init__(self, system):
        self.system = system
        self.server = AsyncCbvrServer(system)
        base = self.server.start_in_thread()
        self.netloc = base.split("//", 1)[1]

    def connection(self, timeout: float = 30.0) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.netloc, timeout=timeout)

    def request(self, method: str, path: str, body: bytes = b"", conn=None):
        """Returns ``(status, headers-dict, decoded-json-or-bytes)``."""
        own = conn is None
        conn = conn or self.connection()
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = response.read()
            headers = {k.lower(): v for k, v in response.getheaders()}
            if headers.get("content-type", "").startswith("application/json"):
                payload = json.loads(payload)
            return response.status, headers, payload
        finally:
            if own:
                conn.close()

    def metric_value(self, name: str) -> float:
        """Sum of a family's samples (counter value or histogram count)."""
        _, _, payload = self.request("GET", "/metrics?format=json")
        family = payload.get(name)
        if not family:
            return 0.0
        return sum(s.get("value", s.get("count", 0)) for s in family["samples"])

    def hold_engine(self):
        """Park the engine behind an Event so a queue builds: the first
        batch dispatched from now on blocks the executor until ``release``
        is set.  Returns ``(entered, release)``; ``entered`` is set once a
        batch is blocked."""
        engine = self.system.engine
        real = engine.query_batch
        entered, release = threading.Event(), threading.Event()

        def held(requests):
            entered.set()
            release.wait(timeout=30)
            return real(requests)

        engine.query_batch = held
        return entered, release

    def wait_for_metric(self, name: str, value: float, timeout: float = 10.0) -> None:
        """Block until the family's total reaches ``value``."""
        deadline = time.monotonic() + timeout
        while self.metric_value(name) < value:
            assert time.monotonic() < deadline, f"{name} never reached {value}"
            time.sleep(0.01)

    def close(self):
        self.server.stop()
        self.system.close()


@pytest.fixture(scope="module")
def harness(small_corpus):
    """A module-shared running server over a default-config system."""
    h = ServerHarness(build_system(small_corpus, SystemConfig(workers=1)))
    yield h
    h.close()


@pytest.fixture()
def make_harness(small_corpus):
    """Factory for servers with bespoke configs; closes them on teardown."""
    created = []

    def factory(config: SystemConfig, n_videos: int = 4) -> ServerHarness:
        h = ServerHarness(build_system(small_corpus, config, n_videos))
        created.append(h)
        return h

    yield factory
    for h in created:
        h.close()
