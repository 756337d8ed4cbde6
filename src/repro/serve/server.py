"""The ``repro serve`` daemon: an HTTP front over the planner.

Architecture::

    client ──HTTP──▶ ReproServer accept loop (one selector)
                        │  accept; watch idle connections; a connection
                        │  whose request has begun to arrive goes to
                        ▼
                     ServeRequestHandler.serve (pooled handler thread)
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
milliseconds-to-seconds of CPU work, so a fixed pool of handler threads
with an optional :class:`~concurrent.futures.ProcessPoolExecutor` behind
it (same worker initializer as the experiment engine) is the right
shape — no event loop, no framework dependency.  The handler threads
live in a :class:`~concurrent.futures.ThreadPoolExecutor`, which reuses
an idle thread before it starts another: starting a thread for every
connection cost about 0.1 ms, a quarter of a warm request.

A connection holds a handler thread only while one of its requests is
being read and answered.  Between requests — before the first, and
between the requests of a kept-alive connection — it waits in the
accept loop's selector, however long it idles.  So the pool size bounds
how many requests are served at once, never how many clients may stay
connected.  A socket timeout bounds how long a request that has begun
to arrive may stall, the one way a client can still hold a thread.

Each response goes out in one write: with the status line and headers
in a separate write, the body of every response on a kept-alive
connection waited for the client's delayed ACK (about 40 ms).

Graceful shutdown (:func:`run_server`): SIGINT/SIGTERM set an event; the
accept loop stops, idle connections are closed (a request that had
already arrived on one is still answered), the handler pool serves the
connections queued for it and joins the in-flight ones, each of which
closes its connection after its response, the worker pool drains, and
the process exits 0.
"""

from __future__ import annotations

import json
import selectors
import signal
import socket
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any

from ..obs import clock, configure_worker, get_tracer, metrics_registry
from .handlers import respond
from .protocol import POST_ENDPOINTS, canonical_json, error_response

#: Endpoints reachable with GET (read-only probes).
GET_ENDPOINTS: tuple[str, ...] = ("health", "models", "stats")

#: Largest request body the daemon will read, in bytes.
MAX_BODY_BYTES = 1 << 20


class ReproServer(HTTPServer):
    """Planning-as-a-service HTTP server with an optional worker pool.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    A connection whose request has begun to arrive is served on one of
    :attr:`handler_threads` pooled handler threads; an idle connection
    waits in the accept loop's selector and holds no thread.  ``jobs=0``
    executes requests in the handler thread; ``jobs>0`` submits them to
    a :class:`ProcessPoolExecutor` whose workers share the on-disk plan
    cache with the parent and with every other entry point (CLI,
    experiment engine).
    """

    #: Requests read and answered at once; ``--jobs N`` above this
    #: raises the pool to ``N`` threads, so ``N`` requests run at once.
    #: With ``--jobs 0`` every request runs under one interpreter lock:
    #: against 16 cold clients, 16 threads served no more requests per
    #: second than 4 and took twice as long at p99 (docs/serving.md).
    handler_threads = 4
    # socketserver's listen backlog of 5 overflows under a burst of
    # connects, and each dropped SYN costs its client a ~1 s retransmit.
    request_queue_size = 128

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, jobs: int = 0
    ) -> None:
        super().__init__((host, port), ServeRequestHandler)
        self._handlers = ThreadPoolExecutor(
            max_workers=max(self.handler_threads, jobs),
            thread_name_prefix="repro-serve-handler",
        )
        self._pool: ProcessPoolExecutor | None = (
            ProcessPoolExecutor(max_workers=jobs, initializer=configure_worker)
            if jobs > 0
            else None
        )
        #: Set once the drain begins: idle connections close, and every
        #: later response closes its connection.
        self.draining = False
        self._stopping = False
        self._stopped = threading.Event()
        # Handler threads hand idle connections back through ``_parked``
        # and wake the accept loop, which alone touches the selector.
        self._parked: list[ServeRequestHandler] = []
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)

    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        return int(self.server_address[1])

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections and watch idle ones until :meth:`shutdown`."""
        self._stopped.clear()
        try:
            while not self._stopping:
                for key, _ in self._selector.select(poll_interval):
                    if key.fileobj is self.socket:
                        self._accept()
                    elif key.fileobj is self._wake_r:
                        self._take_parked()
                    else:
                        self._selector.unregister(key.fileobj)
                        self._watch(key.data)
        finally:
            self._stopping = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the accept loop and wait until it has stopped."""
        self._stopping = True
        self._wake()
        self._stopped.wait()

    def _accept(self) -> None:
        try:
            request, client_address = self.get_request()
        except OSError:
            return
        self._watch(ServeRequestHandler(request, client_address, self))

    def _watch(self, handler: ServeRequestHandler) -> None:
        """Serve, close or keep watching a connection, as its bytes say."""
        if not self._route(handler):
            self._selector.register(handler.connection, selectors.EVENT_READ, handler)

    def _route(self, handler: ServeRequestHandler) -> bool:
        """Queue ``handler`` for a handler thread if a request has begun
        to arrive, or close it at end of stream; False while it idles."""
        try:
            waiting = handler.connection.recv(1, socket.MSG_PEEK)
        except BlockingIOError:
            return False
        except OSError:  # reset by the peer
            waiting = b""
        if waiting:
            self._handlers.submit(handler.serve)
        else:
            handler.close()
        return True

    def park(self, handler: ServeRequestHandler) -> None:
        """Hand an idle connection back to the accept loop (on a handler thread)."""
        with self._lock:
            if self.draining:
                handler.close()
                return
            self._parked.append(handler)
            wake = len(self._parked) == 1
        if wake:
            self._wake()

    def _take_parked(self) -> None:
        try:
            self._wake_r.recv(4096)  # bytes left over wake the loop again
        except BlockingIOError:
            pass
        with self._lock:
            parked, self._parked = self._parked, []
        for handler in parked:
            # Level-triggered: a request that has arrived meanwhile is
            # reported by the next select.
            self._selector.register(handler.connection, selectors.EVENT_READ, handler)

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a byte already waiting wakes the loop, or closed
            pass

    def server_close(self) -> None:
        """Close the listening socket and the accept loop's selector."""
        super().server_close()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

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

    def close(self) -> None:
        """Close idle connections, drain the handler pool, shut the worker pool down.

        Call it after :meth:`shutdown`.  An idle connection on which a
        request has already arrived is queued and answered, not closed.
        The handler pool serves the connections queued for it and joins
        the in-flight ones before the worker pool goes.
        """
        with self._lock:
            if self.draining:  # closed already
                return
            self.draining = True
            idle, self._parked = self._parked, []
        idle += [
            key.data
            for key in self._selector.get_map().values()
            if isinstance(key.data, ServeRequestHandler)
        ]
        for handler in idle:
            if not self._route(handler):
                handler.close()
        self.server_close()
        self._handlers.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ServeRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto ``repro-serve/1`` envelopes.

    GET serves :data:`GET_ENDPOINTS`; POST serves
    :data:`~repro.serve.protocol.POST_ENDPOINTS` with a JSON parameter
    body.  Every outcome — including malformed JSON, unknown paths and
    wrong methods — is a structured envelope with a meaningful status
    code; a traceback never reaches the wire.

    One instance lives as long as its connection.  The accept loop
    builds it and runs :meth:`serve` on a handler thread each time a
    request begins to arrive; the socket is non-blocking in between.
    """

    server: ReproServer
    protocol_version = "HTTP/1.1"
    #: Seconds a handler thread waits on a socket read or write once a
    #: request has begun to arrive: a client that stalls mid-request
    #: this long is cut off, so no client holds a thread for good.
    #: Idle connections are not subject to it.
    timeout = 5.0

    def __init__(self, request: Any, client_address: Any, server: ReproServer) -> None:
        self.request = request
        self.client_address = client_address
        self.server = server
        self.setup()
        self.connection.settimeout(0.0)

    def serve(self) -> None:
        """Answer the requests that have arrived; then park or close the connection."""
        try:
            while True:
                self.connection.settimeout(self.timeout)
                self.handle_one_request()
                if self.close_connection:
                    break
                self.connection.settimeout(0.0)
                try:
                    waiting = self.rfile.peek(1)  # buffered or arrived
                except OSError:  # reset by the peer
                    break
                if not waiting:
                    self.server.park(self)
                    return
        except Exception:
            self.server.handle_error(self.request, self.client_address)
        self.close()

    def close(self) -> None:
        """Flush and close the connection."""
        try:
            self.finish()
        finally:
            self.server.shutdown_request(self.request)

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr lines; metrics carry the signal."""

    def _endpoint(self) -> str:
        """The endpoint named by the request path (no nesting, no query)."""
        return self.path.split("?", 1)[0].strip("/")

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

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Answer a request :mod:`http.server` rejects before dispatch (a
        malformed request line, an unsupported method, oversized headers)
        with a ``bad-request`` envelope, and close the connection."""
        self.close_connection = True
        status = HTTPStatus(code)
        # ``command`` is empty or None until the request line has parsed;
        # ``path`` may still be the previous request's.
        endpoint = self._endpoint() if self.command else ""
        self._send_error(int(status), endpoint, "bad-request", message or status.phrase)

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
        declared = (self.headers.get("Content-Length") or "0").strip()
        length = int(declared) if declared.isascii() and declared.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Where the body ends is unknown, so no request can follow it.
            self.close_connection = True
            self._send_error(
                400,
                endpoint,
                "bad-request",
                f"Content-Length {declared!r} is not a byte count from 0 to {MAX_BODY_BYTES}",
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

    The shutdown sequence — stop accepting, close idle connections, serve
    the queued connections and join the in-flight ones, drain the worker
    pool — is the graceful-shutdown contract; CI's serve smoke job
    asserts the exit status.
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
