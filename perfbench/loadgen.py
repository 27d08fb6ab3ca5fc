"""Traffic for the serve-open workload (stdlib only).

* :func:`open_loop_schedule` — Poisson arrivals at a fixed rate, backends
  round-robin, batch sizes log-uniform over 1..16 triples, all drawn from
  the workload seed.
* :class:`Generator` — one thread driving a few keep-alive HTTP/1.1
  connections.  A request that is due while every connection is busy
  waits; its latency is timed from when it was *due*, so a stall shows in
  the requests behind it.  Closed-loop bursts reuse the same loop with
  every request due at once.
* :func:`summarize` — latency percentiles, the share answered 200 within
  the latency limit, and the error rate (anything but 200, a shed 503
  included, is a failure and a miss).
"""

from __future__ import annotations

import json
import math
import random
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import percentile

#: Open-loop arrival rate, requests per second.
RATE_RPS = 20.0
#: Latency limit a fixed-rate request must meet, from its due time.
LIMIT_S = 0.100
#: Largest batch a request carries.
MAX_TRIPLES = 16
#: Give up when no response arrives for this long.
IDLE_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Request:
    """One request: when it is due (seconds after the phase starts), which
    backend it goes to and which candidate triples it carries."""

    id: str
    due: float
    backend: str
    triples: Tuple[int, ...]


@dataclass
class Record:
    """What the generator saw for one request (times on ``perf_counter``)."""

    id: str
    backend: str
    triples: Tuple[int, ...]
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    labels: Optional[list] = None


def _batch(rng: random.Random, n_candidates: int) -> Tuple[int, ...]:
    size = min(MAX_TRIPLES, int(math.exp(rng.uniform(0.0, math.log(MAX_TRIPLES + 1)))))
    return tuple(rng.randrange(n_candidates) for _ in range(size))


def open_loop_schedule(
    seed: int,
    rate: float,
    duration_s: float,
    backends: Sequence[str],
    n_candidates: int,
) -> List[Request]:
    """Poisson arrivals over ``[0, duration_s)``; a pure function of its args."""
    rng = random.Random(f"perfbench-open-loop:{seed}")
    requests: List[Request] = []
    due = rng.expovariate(rate)
    while due < duration_s:
        index = len(requests)
        requests.append(
            Request(f"o{index}", due, backends[index % len(backends)], _batch(rng, n_candidates))
        )
        due += rng.expovariate(rate)
    return requests


def burst(
    seed: int, label: str, count: int, backends: Sequence[str], n_candidates: int
) -> List[Request]:
    """``count`` requests all due at once: a closed loop over the connections."""
    rng = random.Random(f"perfbench-burst:{seed}:{label}")
    return [
        Request(f"{label}-{i}", 0.0, backends[i % len(backends)], _batch(rng, n_candidates))
        for i in range(count)
    ]


@dataclass
class _Connection:
    sock: socket.socket
    index: int
    buffer: bytes = b""
    record: Optional[Record] = None


def _parse(buffer: bytes) -> Optional[Tuple[int, bytes, bytes]]:
    """``(status, body, rest)`` once a whole response is buffered."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buffer[:end].decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    stop = end + 4 + length
    if len(buffer) < stop:
        return None
    return status, buffer[end + 4 : stop], buffer[stop:]


class Generator:
    """One thread sending requests over ``connections`` keep-alive sockets."""

    def __init__(self, port: int, connections: int, body_for: Callable[[Request], bytes]):
        self.body_for = body_for
        self.selector = selectors.DefaultSelector()
        self.connections: List[_Connection] = []
        for index in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=IDLE_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, index)
            self.connections.append(conn)
            self.selector.register(sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        for conn in self.connections:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.selector.close()

    def _send(self, conn: _Connection, request: Request, start: float) -> Record:
        body = self.body_for(request)
        head = (
            "POST /v1/classify HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Request-Id: {request.id}\r\n\r\n"
        ).encode("ascii")
        record = Record(request.id, request.backend, request.triples, start + request.due)
        record.sent = time.perf_counter()
        conn.sock.sendall(head + body)
        conn.record = record
        return record

    def run(self, requests: Sequence[Request], start: Optional[float] = None) -> List[Record]:
        """Send each request when due (or as soon as a connection is free)
        and return one record per request, in completion order."""
        start = time.perf_counter() if start is None else start
        ordered = sorted(requests, key=lambda r: r.due)
        waiting: deque = deque()
        idle = deque(self.connections)
        done: List[Record] = []
        upcoming = 0
        while len(done) < len(ordered):
            now = time.perf_counter()
            while upcoming < len(ordered) and start + ordered[upcoming].due <= now:
                waiting.append(ordered[upcoming])
                upcoming += 1
            while waiting and idle:
                self._send(idle.popleft(), waiting.popleft(), start)
            if upcoming < len(ordered):
                timeout = max(0.0, start + ordered[upcoming].due - time.perf_counter())
            else:
                timeout = IDLE_TIMEOUT_S
            events = self.selector.select(timeout)
            if not events and upcoming >= len(ordered):
                raise TimeoutError(f"no response within {IDLE_TIMEOUT_S}s")
            for key, _ in events:
                conn: _Connection = key.data
                chunk = conn.sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buffer += chunk
                parsed = _parse(conn.buffer)
                if parsed is None:
                    continue
                status, body, conn.buffer = parsed
                record = conn.record
                record.done = time.perf_counter()
                record.status = status
                if status == 200:
                    record.labels = json.loads(body)["labels"]
                conn.record = None
                idle.append(conn)
                done.append(record)
        return done


def summarize(records: Sequence[Record], limit_s: float = LIMIT_S) -> Dict[str, float]:
    """Latency from due time, share within the limit, error rate, lateness."""
    if not records:
        raise ValueError("no records to summarize")
    latencies = [r.done - r.due for r in records]
    ok = [r for r in records if r.status == 200]
    within = sum(1 for r in ok if r.done - r.due <= limit_s)
    failed = len(records) - len(ok)
    return {
        "requests": len(records),
        "failed": failed,
        "shed": sum(1 for r in records if r.status == 503),
        "error_rate": failed / len(records),
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_p95_ms": 1000.0 * percentile(latencies, 95),
        "within_limit_share": within / len(records),
        "late_p95_ms": 1000.0 * percentile([r.sent - r.due for r in records], 95),
    }


__all__ = [
    "RATE_RPS",
    "LIMIT_S",
    "MAX_TRIPLES",
    "Request",
    "Record",
    "open_loop_schedule",
    "burst",
    "Generator",
    "summarize",
]
