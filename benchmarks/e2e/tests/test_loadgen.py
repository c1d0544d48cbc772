"""The load generator: due-time latency, and that children are always reaped."""

import http.server
import os
import threading
import time

import pytest

import loadgen
import oracle as oracle_mod
import plan
import run
import workloads
from measure import child_pids


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    """Answers at once, except that one request sleeps."""

    protocol_version = "HTTP/1.1"
    stall_s = 0.4
    seen = 0
    lock = threading.Lock()

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            type(self).seen += 1
            stall = type(self).seen == 3
        if stall:
            time.sleep(self.stall_s)
        body = b'{"results": []}'
        # one write: head and body in separate segments wait on delayed ACKs
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )

    def log_message(self, *args):
        pass


@pytest.fixture
def stalling_server():
    _StallingHandler.seen = 0
    server = http.server.HTTPServer(("127.0.0.1", 0), _StallingHandler)  # one at a time
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_open_loop_counts_latency_from_when_a_request_was_due(stalling_server):
    rate, n = 50.0, 20
    result = loadgen.open_loop(stalling_server, [b"x"] * n, rate, n_connections=1)
    latencies = [s.latency_ms for s in result.samples]
    assert result.ok == n
    # the stall (request 2) delays the requests due while it lasted: each
    # is charged its own wait, though the server answered it instantly
    assert latencies[2] >= 400
    late = [i for i, ms in enumerate(latencies) if ms > 100]
    assert late[:4] == [2, 3, 4, 5] and len(late) >= 8
    assert result.samples[5].lateness_ms > 100  # the generator itself sent late
    assert latencies[-1] < 100  # the backlog drained
    verdict = loadgen.judge_rung(rate, result)
    assert not verdict.passed and verdict.p95_ms > plan.SLO_P95_MS


def test_closed_loop_sends_the_next_only_after_the_answer(stalling_server):
    result = loadgen.closed_loop(stalling_server, [b"x"] * 6, n_connections=1)
    assert [s.latency_ms > 100 for s in result.samples] == [False, False, True, False, False, False]
    assert result.wall_s >= 0.4 and result.failed == 0


def test_transport_failures_count_as_failed():
    port = loadgen._free_port()  # nobody listens here
    result = loadgen.closed_loop(port, [b"x"] * 3, n_connections=1)
    assert result.failed == 3 and result.ok == 0
    assert not loadgen.judge_rung(10, result).passed


def test_server_process_is_reaped_when_the_body_raises(tmp_path):
    with pytest.raises(RuntimeError, match="boom"):
        with loadgen.ServerProcess(str(tmp_path / "missing.rdb")) as server:
            server.start()
            pid = server.proc.pid
            raise RuntimeError("boom")
    assert server.proc is None
    assert not os.path.exists(f"/proc/{pid}") or pid not in child_pids()


def test_shard_workers_are_reaped_when_the_workload_fails(monkeypatch):
    def explode(system, clip):
        assert child_pids(), "the shard workers should be up by now"
        raise RuntimeError("clip query failed")

    monkeypatch.setattr(workloads, "_timed_clip", explode)
    with pytest.raises(RuntimeError, match="clip query failed"):
        run.run_one("shard_10k", seed=3, seconds=1, trace=False, scale_name="smoke")
    assert child_pids() == []


def test_oracle_mismatch_reports_order_and_distance():
    want = [oracle_mod.OracleHit(1, 0.10, "news"), oracle_mod.OracleHit(2, 0.20, "news")]
    assert oracle_mod.mismatch([1, 2], [0.10, 0.20], want) is None
    assert "ids" in oracle_mod.mismatch([2, 1], [0.10, 0.20], want)
    assert "rank 1" in oracle_mod.mismatch([1, 2], [0.10, 0.2000001], want)
    assert oracle_mod.mismatch([1, 2], [0.10, 0.2000001], want, abs_tolerance=1e-6) is None
