"""The acceptance test: served answers == offline answers, all paradigms.

A micro lab trains all four paradigm adapters once per module; concurrent
HTTP clients then hammer the in-process server and every response must be
identical to what the same ``Curator`` computes offline — proving the
micro-batcher's coalescing and the ICL re-anchoring never change a label.

The transport tests at the end drive a stub-curator server over raw
sockets: each response must leave in one write on a ``TCP_NODELAY``
socket, and a body that cannot be framed must close the connection.
"""

import http.client
import json
import socket
import statistics
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import Lab
from repro.serve.bench import bench_lab_config
from repro.serve.curator import DEFAULT_BACKENDS, Curator, build_pool
from repro.serve.schemas import SERVE_FORMAT, triple_payload
from repro.serve.server import (
    MAX_BODY_BYTES,
    CurationRequestHandler,
    start_server,
    stop_server,
)
from repro.serve.service import CurationService

CLIENT_THREADS = 8


@pytest.fixture(scope="module")
def serve_world():
    """Micro lab, warm four-backend pool, offline truth, live server."""
    lab = Lab(bench_lab_config(entities=120, seed=0))
    pool = build_pool(lab, DEFAULT_BACKENDS, task=1, seed=0)
    candidates = list(lab.ml_split(1).test)[:12]
    offline = {
        name: curator.classify_batch(candidates)
        for name, curator in pool.items()
    }
    service = CurationService.from_curators(
        pool, max_batch=16, max_wait_s=0.002, max_queue=512
    ).start()
    server, thread, port = start_server(service)
    try:
        yield {
            "candidates": candidates,
            "offline": offline,
            "service": service,
            "port": port,
        }
    finally:
        stop_server(server, thread)


def post_classify(port, payload):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(
            "POST",
            "/v1/classify",
            body=json.dumps(payload, sort_keys=True),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


@pytest.mark.parametrize("backend", DEFAULT_BACKENDS)
class TestServedEqualsOffline:
    def test_batch_request_matches_offline_classify_batch(
        self, serve_world, backend
    ):
        body = {
            "backend": backend,
            "triples": [triple_payload(t) for t in serve_world["candidates"]],
        }
        status, payload = post_classify(serve_world["port"], body)
        assert status == 200, payload
        assert payload["format"] == SERVE_FORMAT
        assert payload["backend"] == backend
        assert payload["labels"] == serve_world["offline"][backend]

    def test_single_triple_matches_offline_label(self, serve_world, backend):
        triple = serve_world["candidates"][0]
        status, payload = post_classify(
            serve_world["port"],
            {"backend": backend, "triple": triple_payload(triple)},
        )
        assert status == 200, payload
        assert payload["n"] == 1
        assert payload["label"] == serve_world["offline"][backend][0]

    def test_concurrent_clients_all_match_offline(self, serve_world, backend):
        """N threads, overlapping slices, coalesced batches — same labels."""
        candidates = serve_world["candidates"]
        expected = serve_world["offline"][backend]
        results = [None] * CLIENT_THREADS
        barrier = threading.Barrier(CLIENT_THREADS)

        def client(i):
            # Each client asks for a different rotation of the candidate
            # list, so coalesced batches mix differently-ordered requests.
            order = [(i + j) % len(candidates) for j in range(4)]
            barrier.wait(timeout=30)
            status, payload = post_classify(
                serve_world["port"],
                {
                    "backend": backend,
                    "triples": [triple_payload(candidates[k]) for k in order],
                },
            )
            results[i] = (status, payload, order)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(CLIENT_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert all(result is not None for result in results)
        for status, payload, order in results:
            assert status == 200, payload
            assert payload["labels"] == [expected[k] for k in order]


class TestCrossBackendTraffic:
    def test_interleaved_backends_never_cross_wires(self, serve_world):
        """Concurrent traffic to all four backends routes correctly."""
        jobs = [
            (backend, i)
            for backend in DEFAULT_BACKENDS
            for i in range(3)
        ]
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def client(slot, backend, offset):
            triple = serve_world["candidates"][offset]
            barrier.wait(timeout=30)
            status, payload = post_classify(
                serve_world["port"],
                {"backend": backend, "triple": triple_payload(triple)},
            )
            results[slot] = (backend, offset, status, payload)

        threads = [
            threading.Thread(target=client, args=(slot, backend, offset))
            for slot, (backend, offset) in enumerate(jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for backend, offset, status, payload in results:
            assert status == 200, payload
            assert payload["backend"] == backend
            assert payload["label"] == serve_world["offline"][backend][offset]

    def test_statz_accounts_for_every_request(self, serve_world):
        before = serve_world["service"].stats.snapshot()["requests"]
        post_classify(
            serve_world["port"],
            {"triples": [triple_payload(serve_world["candidates"][0])]},
        )
        after = serve_world["service"].stats.snapshot()
        assert after["requests"] == before + 1
        assert after["shed"] == 0
        assert after["errors"] == 0


# -- transport ---------------------------------------------------------------

TRIPLE = {"subject": "caffeine", "relation": "has_role", "object": "stimulant"}


class OnesCurator(Curator):
    """Labels every triple 1, instantly: the transport is all that is timed."""

    def classify_batch(self, triples):
        return [1] * len(triples)


def stub_service(**backend_kwargs):
    return CurationService.from_curators(
        {"stub": OnesCurator("stub")}, max_wait_s=0.0, **backend_kwargs
    ).start()


def raw_request(method, path, body=None, headers=()):
    """One HTTP/1.1 request as the bytes a client puts on the wire."""
    lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    if body is not None:
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")


def classify_request(payload):
    return raw_request(
        "POST", "/v1/classify", json.dumps(payload, sort_keys=True).encode()
    )


def read_response(reader):
    """(status, lower-cased headers, body) of one response off ``reader``."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


@pytest.fixture
def stub_server():
    service = stub_service()
    server, thread, port = start_server(service)
    try:
        yield port
    finally:
        stop_server(server, thread)


def connect(port):
    client = socket.create_connection(("127.0.0.1", port), timeout=10)
    client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return client


class RecordingSocket(socket.socket):
    """A real socket that keeps every chunk the handler writes to it.

    A chunk is recorded before it is sent, so the peer never reads a
    response whose write is not yet on the list.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = []

    def send(self, data, *args):
        self.writes.append(bytes(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.writes.append(bytes(data))
        return super().sendall(data, *args)


class TestTransport:
    def test_keep_alive_round_trips_do_not_stall(self, stub_server):
        """Headers and body split over two writes cost ~40 ms per request:
        Nagle waits for the client's delayed ACK of the header segment."""
        request = classify_request({"triple": TRIPLE})
        round_trips = []
        with connect(stub_server) as client, client.makefile("rb") as reader:
            for _ in range(20):
                started = time.perf_counter()
                client.sendall(request)
                status, headers, _ = read_response(reader)
                round_trips.append(time.perf_counter() - started)
                assert status == 200
                assert headers.get("connection") != "close"
        assert statistics.median(round_trips) < 0.020, round_trips

    def test_each_response_is_one_write_on_a_nodelay_socket(self):
        service = stub_service(failure_threshold=1)
        listener = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(listener.getsockname(), timeout=10)
        accepted, address = listener.accept()
        listener.close()
        connection = RecordingSocket(fileno=accepted.detach())
        handler = threading.Thread(
            target=CurationRequestHandler,
            args=(connection, address, SimpleNamespace(service=service)),
        )
        handler.start()
        statuses = []
        try:
            with client, client.makefile("rb") as reader:

                def exchange(request):
                    client.sendall(request)
                    statuses.append(read_response(reader)[0])
                    assert len(connection.writes) == len(statuses)
                    assert connection.writes[-1].startswith(b"HTTP/1.1 ")

                exchange(classify_request({"triple": TRIPLE}))
                exchange(classify_request({}))
                exchange(raw_request("GET", "/nope"))
                exchange(raw_request("GET", "/statz"))
                service.pool["stub"].breaker.record_failure()
                exchange(classify_request({"triple": TRIPLE}))
                assert connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
        finally:
            handler.join(timeout=10)
            service.stop()
        assert not handler.is_alive()
        assert statuses == [200, 400, 404, 200, 503]

    def test_expect_100_continue_is_sent_before_the_body(self, stub_server):
        body = json.dumps({"triple": TRIPLE}).encode()
        head = raw_request(
            "POST",
            "/v1/classify",
            headers=(("Content-Length", len(body)), ("Expect", "100-continue")),
        )
        with connect(stub_server) as client, client.makefile("rb") as reader:
            client.sendall(head)
            assert reader.readline().startswith(b"HTTP/1.1 100 ")
            assert reader.readline() == b"\r\n"
            client.sendall(body)
            assert read_response(reader)[0] == 200

    @pytest.mark.parametrize("declared", ["abc", "-5", "1_0"])
    def test_malformed_content_length_is_400_and_closes(
        self, stub_server, declared
    ):
        request = raw_request(
            "POST", "/v1/classify", headers=(("Content-Length", declared),)
        )
        with connect(stub_server) as client, client.makefile("rb") as reader:
            client.sendall(request)
            status, headers, body = read_response(reader)
            assert status == 400
            assert "Content-Length" in json.loads(body)["error"]
            assert headers["connection"] == "close"
            assert reader.read(1) == b""

    def test_oversized_body_is_413_and_closes(self, stub_server):
        request = raw_request(
            "POST",
            "/v1/classify",
            headers=(("Content-Length", str(MAX_BODY_BYTES + 1)),),
        )
        with connect(stub_server) as client, client.makefile("rb") as reader:
            client.sendall(request)
            status, headers, body = read_response(reader)
            assert status == 413
            assert json.loads(body)["status"] == 413
            assert headers["connection"] == "close"
            # EOF, not the unread body parsed as a next request.
            assert reader.read(1) == b""
