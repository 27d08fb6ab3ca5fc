"""HTTP transport for the curation service (stdlib-only).

A :class:`ThreadingHTTPServer` whose handler translates between the wire
schemas (:mod:`repro.serve.schemas`) and :class:`CurationService`:

* ``POST /v1/classify`` — classify one triple or a batch; 400 on schema
  errors, 413 on a body above :data:`MAX_BODY_BYTES`, 404 on unknown
  backends, 503 + ``Retry-After`` when the request was shed, 500 (counted)
  on anything else.
* ``GET /healthz`` — liveness + the backend lineup.
* ``GET /statz`` — request/shed/latency counters and per-backend breaker
  and batcher snapshots.

``HTTP/1.1`` with explicit ``Content-Length`` keeps client connections
alive, which is what lets the bench harness drive hundreds of clients over
persistent connections.  Access logging is silenced: request accounting
lives in ``/statz`` and the obs counters, not a text log.

Each response leaves in one write, and every accepted socket has
``TCP_NODELAY`` set.  The handler's writer is buffered, so the status line,
headers and body reach the socket together when ``handle_one_request``
flushes.  Sent as two small writes on a keep-alive connection, Nagle's
algorithm holds the body until the client ACKs the headers, and the
client delays that ACK by ~40 ms: a floor under every response after the
first.  ``/statz`` cannot see it, because it times only
``CurationService.classify``.  ``TCP_NODELAY`` keeps a response larger
than the write buffer, which leaves in more than one write, from stalling
the same way.

A request whose body cannot be framed, because its ``Content-Length`` is
malformed (400) or above :data:`MAX_BODY_BYTES` (413), is answered with
``Connection: close`` and the connection is closed: the unread bytes must
never be parsed as the next request.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.obs.trace import get_tracer
from repro.serve.schemas import (
    SchemaError,
    classify_response,
    error_response,
    parse_classify_request,
    render_json,
)
from repro.serve.service import CurationService, ShedError

#: Request bodies above this size are rejected outright (413).
MAX_BODY_BYTES = 1 << 20


class UnframedBodyError(SchemaError):
    """The request body cannot be read off the stream; the connection closes."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class CurationRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's ``service``."""

    protocol_version = "HTTP/1.1"
    server: "CurationHTTPServer"
    #: Buffer the writer so each response leaves in one write, and send it
    #: without waiting on Nagle (see the module docstring).
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def handle_expect_100(self) -> bool:
        # The client waits for ``100 Continue`` before it sends the body, so
        # the interim response cannot sit in the buffered writer.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        body = render_json(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise UnframedBodyError(f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise UnframedBodyError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
                status=413,
            )
        return self.rfile.read(length)

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(200, service.healthz_payload())
        elif self.path == "/statz":
            self._send_json(200, service.statz_payload())
        else:
            self._send_json(404, error_response(404, f"no route {self.path!r}"))

    def do_POST(self) -> None:
        if self.path != "/v1/classify":
            self._send_json(404, error_response(404, f"no route {self.path!r}"))
            return
        service = self.server.service
        try:
            request = parse_classify_request(self._read_body())
            backend, labels, batch_size = service.classify(
                request.backend, request.triples
            )
        except UnframedBodyError as error:
            self._send_json(
                error.status,
                error_response(error.status, str(error)),
                headers=(("Connection", "close"),),
            )
        except SchemaError as error:
            self._send_json(400, error_response(400, str(error)))
        except KeyError as error:
            self._send_json(404, error_response(404, str(error)))
        except ShedError as error:
            retry_after = error.retry_after_s
            self._send_json(
                503,
                error_response(503, str(error), retry_after_s=retry_after),
                headers=(("Retry-After", f"{retry_after:.3f}"),),
            )
        except Exception as error:
            get_tracer().count("serve.internal_errors")
            self._send_json(500, error_response(500, str(error)))
        else:
            self._send_json(
                200,
                classify_response(
                    backend, labels, batch=request.batch, batched_with=batch_size
                ),
            )


class CurationHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server that owns a :class:`CurationService`."""

    daemon_threads = True
    #: The socketserver default listen backlog (5) resets connections when
    #: hundreds of bench clients connect in the same instant.
    request_queue_size = 512

    def __init__(self, address: Tuple[str, int], service: CurationService):
        super().__init__(address, CurationRequestHandler)
        self.service = service


def start_server(
    service: CurationService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[CurationHTTPServer, threading.Thread, int]:
    """Serve in a daemon thread; ``port=0`` binds an ephemeral port.

    Returns the server, its thread, and the actual bound port.  The caller
    owns shutdown: ``server.shutdown(); thread.join(); service.stop()``.
    """
    server = CurationHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread, server.server_address[1]


def stop_server(
    server: CurationHTTPServer, thread: Optional[threading.Thread] = None
) -> None:
    """Shut the HTTP layer down, then the backends behind it."""
    server.shutdown()
    server.server_close()
    if thread is not None:
        thread.join(timeout=5.0)
    server.service.stop()


__all__ = [
    "MAX_BODY_BYTES",
    "CurationRequestHandler",
    "CurationHTTPServer",
    "start_server",
    "stop_server",
]
