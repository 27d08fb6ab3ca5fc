"""Open-loop schedule, due-time latency and failure accounting."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen
from loadgen import Generator, Record, Request, open_loop_schedule, summarize

BACKENDS = ("rf", "lstm", "ft", "icl")


def test_schedule_is_a_pure_function_of_the_seed():
    first = open_loop_schedule(7, 20.0, 10.0, BACKENDS, 40)
    assert first == open_loop_schedule(7, 20.0, 10.0, BACKENDS, 40)
    assert first != open_loop_schedule(8, 20.0, 10.0, BACKENDS, 40)


def test_schedule_shape():
    schedule = open_loop_schedule(3, 20.0, 30.0, BACKENDS, 40)
    assert 450 < len(schedule) < 750  # Poisson around 600
    dues = [r.due for r in schedule]
    assert dues == sorted(dues) and 0.0 < dues[0] and dues[-1] < 30.0
    assert [r.backend for r in schedule[:8]] == list(BACKENDS) * 2
    sizes = {len(r.triples) for r in schedule}
    assert min(sizes) == 1 and max(sizes) <= loadgen.MAX_TRIPLES
    assert all(0 <= i < 40 for r in schedule for i in r.triples)


def test_latency_is_timed_from_the_due_time():
    record = Record("o0", "rf", (0,), due=10.0, sent=10.05, done=10.06, status=200)
    summary = summarize([record])
    assert summary["latency_p50_ms"] == pytest.approx(60.0)
    assert summary["late_p95_ms"] == pytest.approx(50.0)
    assert summary["within_limit_share"] == 1.0


def test_a_shed_request_is_a_failure_and_a_miss():
    records = [
        Record("o0", "rf", (0,), due=0.0, sent=0.0, done=0.001, status=200),
        Record("o1", "rf", (0,), due=0.0, sent=0.0, done=0.001, status=503),
    ]
    summary = summarize(records)
    assert summary["failed"] == 1 and summary["shed"] == 1
    assert summary["error_rate"] == 0.5
    assert summary["within_limit_share"] == 0.5


class _SlowHandler(BaseHTTPRequestHandler):
    """Answers after 50 ms; requests whose id ends in ``-shed`` get a 503."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(0.05)
        shed = self.headers["X-Request-Id"].endswith("-shed")
        body = json.dumps({"labels": [1]}).encode()
        self.send_response(503 if shed else 200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_request_waiting_for_a_busy_connection_counts_the_wait(slow_server):
    generator = Generator(slow_server, 1, lambda request: b"{}")
    try:
        requests = [Request("a", 0.0, "rf", (0,)), Request("b", 0.0, "rf", (0,))]
        records = {r.id: r for r in generator.run(requests)}
    finally:
        generator.close()
    first, second = records["a"], records["b"]
    assert second.sent >= first.done
    # Both were due at once; the second waited for the only connection.
    assert second.done - second.due >= 0.1
    assert second.done - second.sent < second.done - second.due
    assert summarize(list(records.values()))["late_p95_ms"] >= 50.0


def test_generator_reports_503_as_failed(slow_server):
    generator = Generator(slow_server, 2, lambda request: b"{}")
    try:
        records = generator.run(
            [Request("a", 0.0, "rf", (0,)), Request("b-shed", 0.01, "rf", (0,))]
        )
    finally:
        generator.close()
    statuses = {r.id: r.status for r in records}
    assert statuses == {"a": 200, "b-shed": 503}
    assert summarize(records)["error_rate"] == 0.5
