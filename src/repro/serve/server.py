"""The ``repro serve`` daemon: a threaded HTTP front over the planner.

Architecture::

    client ──HTTP──▶ ServeRequestHandler (thread per request)
                        │  parse path/body → (endpoint, params)
                        ▼
                     ReproServer.dispatch
                        │  --jobs 0: in-process   --jobs N: process pool
                        ▼
                     handlers.respond  →  (status, response body bytes)
                        │  stored reply entry, or
                        ▼
                     handlers.execute  →  (status, repro-serve/1 envelope)

The daemon is deliberately stdlib-only (:mod:`http.server`); plans are
milliseconds-to-seconds of CPU work, so a thread-per-request front with
an optional :class:`~concurrent.futures.ProcessPoolExecutor` behind it
(same worker initializer as the experiment engine) is the right shape —
no event loop, no framework dependency.

Each response goes out in one write: with the status line and headers
in a separate write, the body of every response on a kept-alive
connection waited for the client's delayed ACK (about 40 ms).

Graceful shutdown (:func:`run_server`): SIGINT/SIGTERM set an event; the
serve loop stops accepting, kept-alive connections idling between
requests are closed, in-flight request threads are joined
(``daemon_threads = False`` + ``block_on_close = True``) and close their
connections after their response, the worker pool drains, and the
process exits 0.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from concurrent.futures import ProcessPoolExecutor
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..obs import clock, configure_worker, get_tracer, metrics_registry
from .handlers import respond
from .protocol import POST_ENDPOINTS, canonical_json, error_response

#: Endpoints reachable with GET (read-only probes).
GET_ENDPOINTS: tuple[str, ...] = ("health", "models", "stats")

#: Largest request body the daemon will read, in bytes.
MAX_BODY_BYTES = 1 << 20


class ReproServer(ThreadingHTTPServer):
    """Planning-as-a-service HTTP server with an optional worker pool.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    ``jobs=0`` executes requests in the handler thread; ``jobs>0``
    submits them to a :class:`ProcessPoolExecutor` whose workers share
    the on-disk plan cache with the parent and with every other entry
    point (CLI, experiment engine).
    """

    # Join in-flight request threads on server_close(): this is the
    # drain half of graceful shutdown.
    daemon_threads = False
    block_on_close = True
    # socketserver's listen backlog of 5 overflows under a burst of
    # connects, and each dropped SYN costs its client a ~1 s retransmit.
    request_queue_size = 128

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, jobs: int = 0
    ) -> None:
        super().__init__((host, port), ServeRequestHandler)
        self._pool: ProcessPoolExecutor | None = (
            ProcessPoolExecutor(max_workers=jobs, initializer=configure_worker)
            if jobs > 0
            else None
        )
        #: Set once the drain begins: idle connections close, and every
        #: later response closes its connection.
        self.draining = False
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()

    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        return int(self.server_address[1])

    def dispatch(self, endpoint: str, params: Any = None) -> tuple[int, bytes]:
        """Run one request through the pool (or inline) to a response body."""
        if self._pool is None:
            return respond(endpoint, params)
        try:
            return self._pool.submit(respond, endpoint, params).result()
        except Exception as exc:  # pool broken / worker died
            return 500, canonical_json(
                error_response(endpoint, "internal", f"worker pool failure: {exc}")
            )

    def mark_idle(self, connection: socket.socket, idle: bool) -> None:
        """Record whether ``connection`` is waiting for its next request.

        An idle connection of a draining server is shut for reading at
        once, so its handler thread reads end of stream and exits.
        """
        with self._idle_lock:
            if not idle:
                self._idle.discard(connection)
            elif self.draining:
                _shut_read(connection)
            else:
                self._idle.add(connection)

    def close(self) -> None:
        """Close idle connections, drain request threads, shut the pool down."""
        with self._idle_lock:
            self.draining = True
            for connection in self._idle:
                _shut_read(connection)
            self._idle.clear()
        self.server_close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _shut_read(connection: socket.socket) -> None:
    """Wake a reader blocked on ``connection`` with end of stream."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:  # already closed by the peer
        pass


class ServeRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto ``repro-serve/1`` envelopes.

    GET serves :data:`GET_ENDPOINTS`; POST serves
    :data:`~repro.serve.protocol.POST_ENDPOINTS` with a JSON parameter
    body.  Every outcome — including malformed JSON, unknown paths and
    wrong methods — is a structured envelope with a meaningful status
    code; a traceback never reaches the wire.
    """

    server: ReproServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr lines; metrics carry the signal."""

    def _endpoint(self) -> str:
        """The endpoint named by the request path (no nesting, no query)."""
        return self.path.split("?", 1)[0].strip("/")

    def handle_one_request(self) -> None:
        """Serve one request; the connection is idle until it arrives."""
        self.server.mark_idle(self.connection, True)
        super().handle_one_request()

    def parse_request(self) -> bool:
        """Parse the request's headers; from here on the connection is busy."""
        self.server.mark_idle(self.connection, False)
        return super().parse_request()

    def finish(self) -> None:
        """Forget the connection, then flush and close it."""
        self.server.mark_idle(self.connection, False)
        super().finish()

    def _send(self, status: int, body: bytes) -> None:
        """Write one complete HTTP response in a single write."""
        if self.server.draining:
            self.close_connection = True
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)
        metrics_registry().counter("serve_requests_count").add(1)
        if status >= 400:
            metrics_registry().counter("serve_errors_count").add(1)

    def _send_error(self, status: int, endpoint: str, code: str, message: str) -> None:
        """Write one error envelope."""
        self._send(status, canonical_json(error_response(endpoint, code, message)))

    def _serve(self, endpoint: str, params: Any) -> None:
        """Dispatch + time one request (shared GET/POST tail)."""
        start_ns = clock.monotonic_ns()
        with get_tracer().start("serve_request", endpoint=endpoint) as span:
            status, body = self.server.dispatch(endpoint, params)
            span.set_attr("status", status)
        if endpoint in POST_ENDPOINTS or endpoint in GET_ENDPOINTS:
            metrics_registry().histogram(f"serve_{endpoint}_seconds").observe(
                clock.elapsed_seconds(start_ns)
            )
        self._send(status, body)

    def do_GET(self) -> None:
        """Serve the read-only probe endpoints."""
        endpoint = self._endpoint()
        if endpoint in POST_ENDPOINTS:
            self._send_error(
                405, endpoint, "bad-request", f"endpoint {endpoint!r} requires POST"
            )
            return
        self._serve(endpoint, None)

    def do_POST(self) -> None:
        """Serve the planning endpoints from a JSON parameter body."""
        endpoint = self._endpoint()
        if endpoint in GET_ENDPOINTS:
            self._send_error(
                405, endpoint, "bad-request", f"endpoint {endpoint!r} requires GET"
            )
            return
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            self._send_error(
                400, endpoint, "bad-request", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
            return
        raw = self.rfile.read(length) if length else b""
        try:
            params = json.loads(raw or b"null")
        except json.JSONDecodeError as exc:
            self._send_error(
                400, endpoint, "invalid-json", f"request body is not JSON: {exc}"
            )
            return
        self._serve(endpoint, params)


def run_server(
    host: str = "127.0.0.1",
    port: int = 8077,
    *,
    jobs: int = 0,
    announce: bool = True,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; drain and exit 0.

    The shutdown sequence — stop accepting, close idle connections, join
    in-flight request threads, drain the worker pool — is the graceful-
    shutdown contract; CI's serve smoke job asserts the exit status.
    """
    server = ReproServer(host, port, jobs=jobs)
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=False
    )
    thread.start()
    if announce:
        print(f"repro serve listening on http://{host}:{server.port} (jobs={jobs})", flush=True)
    try:
        # Timed waits: the kernel may hand SIGTERM to any thread, and
        # Python runs its handler only when the main thread next wakes,
        # which an untimed wait would never do.
        while not stop.wait(0.5):
            pass
    finally:
        server.shutdown()
        thread.join()
        server.close()
        for sig, old in previous.items():
            signal.signal(sig, old)
    if announce:
        print("repro serve: drained, exiting 0", flush=True)
    return 0
