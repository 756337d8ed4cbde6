"""The ``repro serve`` daemon: an HTTP front over the planner.

Architecture::

    client ──HTTP──▶ ReproServer accept loop (one thread, one selector)
                        │  accept; buffer and parse every request head
                        │  (read_request); cut off a stalled request;
                        │  write every response
                        ├──▶ reply index: (endpoint, body bytes) → reply
                        │    key; a body seen before skips the JSON parse
                        │    and handlers.reply_key
                        ├──▶ handlers.cached_reply: a stored reply is
                        │    answered here, on the loop
                        ▼  any other request, its body parsed
                     ReproServer.handle (pooled handler thread)
                        │  --jobs 0: in-process   --jobs N: process pool
                        ▼
                     handlers.render  →  (status, response body bytes)
                           execute + canonical_json, store the reply
                           entry; the body goes back to the loop

The daemon is stdlib-only: plans are milliseconds-to-seconds of CPU
work, so a fixed pool of handler threads with an optional
:class:`~concurrent.futures.ProcessPoolExecutor` behind it (same worker
initializer as the experiment engine) is the right shape.  Most requests
repeat one already answered; a stored reply is one file read, less work
than a thread hand-off, so the loop answers it (in the parent process,
with or without ``--jobs``).  A repeated request repeats its body bytes
too, so the loop remembers each body's reply key: the hit path is one
index lookup and one entry read, with no JSON parse and no key hashing.
The index is the loop's own state, bounded in entries and body size.

The loop alone touches the sockets.  An idle connection costs a
selector entry and no thread, however long it idles.  A request that
has begun to arrive waits in its connection's buffer (``http.client``
sends the head and the body in separate writes); one that makes no
progress for :attr:`ReproServer.timeout` is cut off, as is a reply the
client stops reading.  Each response goes out in one write: with the
headers in a separate write, every response on a kept-alive connection
waited for the client's delayed ACK (about 40 ms).

Graceful shutdown (:func:`run_server`): SIGINT/SIGTERM stop the accept
loop; :meth:`ReproServer.close` closes idle connections, answers every
request already begun with ``Connection: close``, drains the pools, and
the process exits 0.
"""

from __future__ import annotations

import contextlib
import json
import selectors
import signal
import socket
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable

from ..obs import clock, configure_worker, get_tracer, metrics_registry
from . import handlers
from .protocol import POST_ENDPOINTS, Head, Reject, canonical_json, error_response
from .protocol import http_response, read_request

#: Endpoints reachable with GET (read-only probes).
GET_ENDPOINTS: tuple[str, ...] = ("health", "models", "stats")

#: Largest request body the daemon will read, in bytes.
MAX_BODY_BYTES = 1 << 20


def _error(endpoint: str, code: str, message: str) -> bytes:
    return canonical_json(error_response(endpoint, code, message))


class Connection:
    """One client connection, owned by the accept loop."""

    __slots__ = ("sock", "buffer", "outbox", "events", "deadline", "busy", "keep_alive",
                 "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()  # received, not yet answered
        self.outbox = b""  # a reply the socket has not taken yet
        self.events = 0  # what the selector watches
        self.deadline: float | None = None  # cut off then, unless idle
        self.busy = False  # a handler thread is rendering its request
        self.keep_alive = False
        self.closing = False


class ReproServer:
    """Planning-as-a-service HTTP server with an optional worker pool.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    Requests the accept loop does not answer itself are rendered on
    :attr:`handler_threads` pooled threads: in the thread with
    ``jobs=0``, else in a :class:`ProcessPoolExecutor` whose workers
    share the on-disk plan cache with the parent.
    """

    #: Requests rendered at once (``--jobs N`` above it raises it to N).
    #: With ``--jobs 0`` they share one interpreter lock: 16 threads
    #: served 16 cold clients no faster than 4, at twice the p99.
    handler_threads = 4
    # A backlog of 5 overflowed under connect bursts (a dropped SYN costs ~1 s).
    request_queue_size = 128
    #: Seconds a request that has begun to arrive, or a reply being
    #: sent, may make no progress before its connection is cut off.
    timeout = 5.0
    #: Reply-index bounds: the most request bodies it maps, and the
    #: longest body it keeps (every valid request is a few hundred bytes).
    index_entries = 1024
    index_body_bytes = 1024

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, jobs: int = 0) -> None:
        self.socket = socket.create_server((host, port), backlog=self.request_queue_size)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._handlers = ThreadPoolExecutor(
            max_workers=max(self.handler_threads, jobs), thread_name_prefix="repro-serve-handler"
        )
        self._pool: ProcessPoolExecutor | None = None
        if jobs:
            self._pool = ProcessPoolExecutor(max_workers=jobs, initializer=configure_worker)
            # A fork pool forks its workers at the first submit.  Submit now,
            # before any serve thread runs: a child forked later could inherit
            # a lock (metrics, cache) that another thread holds.
            self._pool.submit(int)
        #: Set once the drain begins: every later response closes.
        self.draining = False
        self._stopping = False
        self._stopped = threading.Event()
        self._open: set[Connection] = set()
        # (endpoint, raw body) → reply key, for requests seen before.
        self._index: dict[tuple[str, bytes], str | None] = {}
        # Handler threads hand rendered replies back here and wake the loop.
        self._done: list[tuple[Connection, int, bytes]] = []
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

    def serve_forever(  # repro: thread-root -- accept loop
        self, poll_interval: float = 0.5
    ) -> None:
        """Run the accept loop until :meth:`shutdown`."""
        self._stopped.clear()
        try:
            while not self._stopping:
                self._poll(poll_interval)
        finally:
            self._stopping = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the accept loop and wait until it has stopped."""
        self._stopping = True
        self._wake()
        self._stopped.wait()

    def _poll(self, timeout: float) -> None:
        """Serve the ready connections once, then cut off stalled ones."""
        deadlines = [conn.deadline for conn in self._open if conn.deadline is not None]
        if deadlines:
            timeout = min(timeout, max(0.0, min(deadlines) - time.monotonic()))
        for key, mask in self._selector.select(timeout):
            if key.fileobj is self.socket:
                self._accept()
            elif key.fileobj is self._wake_r:
                self._take_done()
            else:
                self._safely(key.data, self._step, mask & selectors.EVENT_WRITE)
        if deadlines:
            now = time.monotonic()
            for conn in [c for c in self._open if c.deadline is not None and c.deadline <= now]:
                self._drop(conn)

    def _safely(self, conn: Connection, step: Callable[..., None], *args: Any) -> None:
        """Run one step on ``conn``: a fault closes it, never the loop."""
        try:
            step(conn, *args)
        except Exception:
            traceback.print_exc()
            self._drop(conn)

    def _accept(self) -> None:
        try:
            sock, _address = self.socket.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = Connection(sock)
        self._open.add(conn)
        self._safely(conn, self._step, False)  # the request has often arrived already

    def _step(self, conn: Connection, writable: int | bool) -> None:
        """Send what is pending, or read what has arrived; then answer."""
        if writable:
            self._write(conn, b"")
        else:
            try:
                data: bytes | None = conn.sock.recv(65536)
            except BlockingIOError:
                data = None
            except OSError:  # reset by the peer
                data = b""
            if data == b"":
                self._drop(conn)
                return
            if data:
                conn.buffer += data
                conn.deadline = None  # progress restarts the stall clock
        self._process(conn)

    def _process(self, conn: Connection) -> None:
        """Answer the requests complete in the buffer, in order, until one
        goes to a handler thread or a reply waits for the socket."""
        while conn.buffer and not (conn.busy or conn.outbox or conn.closing):
            try:
                head = read_request(conn.buffer)
            except Reject as exc:
                if exc.status:
                    body = _error(exc.endpoint, "bad-request", exc.message)
                    self._respond(conn, exc.status, body, False)
                else:
                    self._drop(conn)
                break
            if head is None or not self._route(conn, head):
                break
        self._settle(conn)

    def _route(self, conn: Connection, head: Head) -> bool:
        """Answer or dispatch one request; False while its body is incomplete."""
        method, endpoint, keep, size, declared, expect = head
        length, raw = 0, b""
        error: tuple[int, str, str] | None = None
        if endpoint in (POST_ENDPOINTS if method == "GET" else GET_ENDPOINTS):
            wrong = "POST" if method == "GET" else "GET"
            error = 405, "bad-request", f"endpoint {endpoint!r} requires {wrong}"
        elif method == "POST":
            declared = (declared or "0").strip()
            length = int(declared) if declared.isascii() and declared.isdigit() else -1
            if not 0 <= length <= MAX_BODY_BYTES:
                # Where the body ends is unknown, so no request can follow it.
                keep, length = False, 0
                error = 400, "bad-request", (
                    f"Content-Length {declared!r} is not a byte count from 0 to {MAX_BODY_BYTES}"
                )
            elif len(conn.buffer) < size + length:
                if expect and len(conn.buffer) == size:
                    self._write(conn, b"HTTP/1.1 100 Continue\r\n\r\n")
                return False
            else:
                raw = bytes(conn.buffer[size : size + length])
        del conn.buffer[: size + length]
        if error is None:
            self._dispatch(conn, endpoint, raw, keep)
        else:
            self._respond(conn, error[0], _error(endpoint, error[1], error[2]), keep)
        return True

    def _dispatch(self, conn: Connection, endpoint: str, raw: bytes, keep: bool) -> None:
        """Answer a stored reply here; queue any other request for a handler thread.

        A body seen before takes its reply key from :attr:`_index`, so its
        JSON is parsed only if a handler thread has to render it.
        """
        start_ns = clock.monotonic_ns()
        indexed = (endpoint, raw) in self._index
        params: Any = None
        if not indexed:
            try:
                params = json.loads(raw or b"null")
            except ValueError as exc:  # not JSON, or not in a JSON encoding
                message = f"request body is not JSON: {exc}"
                self._respond(conn, 400, _error(endpoint, "invalid-json", message), keep)
                return
        with get_tracer().start("serve_request", endpoint=endpoint, indexed=indexed) as span:
            try:  # only plan/explain/simulate requests have a reply key
                if indexed:
                    key = self._index[endpoint, raw]
                else:
                    key = handlers.reply_key(endpoint, params)
                    self._remember(endpoint, raw, key)
                status, body = 200, None if key is None else handlers.cached_reply(key)
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                status, key, body = 500, None, _error(endpoint, "internal", message)
            span.set_attr("status", status if body is not None else "queued")
        if body is None:
            if indexed:
                params = json.loads(raw or b"null")
            conn.busy, conn.keep_alive = True, keep
            self._handlers.submit(self.handle, conn, endpoint, params, key, start_ns)
        else:
            self._observe(endpoint, start_ns)
            self._respond(conn, status, body, keep)

    def _remember(self, endpoint: str, raw: bytes, key: str | None) -> None:
        """Index a request body under its reply key (None: it has none).

        Only the reply-keyed endpoints' bodies of at most
        :attr:`index_body_bytes` are kept, and the index is cleared
        wholesale once it holds :attr:`index_entries`, so its size does
        not depend on what clients send.
        """
        if endpoint not in POST_ENDPOINTS or len(raw) > self.index_body_bytes:
            return
        if len(self._index) >= self.index_entries:
            self._index.clear()
        self._index[endpoint, raw] = key

    def handle(  # repro: thread-root[concurrent] -- handler pool
        self, conn: Connection, endpoint: str, params: Any, key: str | None, start_ns: int
    ) -> None:
        """Render one request on a handler thread; the loop sends the reply."""
        try:
            with get_tracer().start("serve_render", endpoint=endpoint) as span:
                status, body = self.dispatch(endpoint, params, key)
                span.set_attr("status", status)
        except Exception as exc:
            status, body = 500, _error(endpoint, "internal", f"{type(exc).__name__}: {exc}")
        self._observe(endpoint, start_ns)
        with self._lock:
            self._done.append((conn, status, body))
        self._wake()

    def dispatch(self, endpoint: str, params: Any = None, key: str | None = None
                 ) -> tuple[int, bytes]:
        """Render one request through the pool (or inline) to a response body."""
        if self._pool is None:
            return handlers.render(endpoint, params, key)
        try:
            return self._pool.submit(handlers.render, endpoint, params, key).result()
        except Exception as exc:  # pool broken / worker died
            return 500, _error(endpoint, "internal", f"worker pool failure: {exc}")

    @staticmethod
    def _observe(endpoint: str, start_ns: int) -> None:
        if endpoint in POST_ENDPOINTS or endpoint in GET_ENDPOINTS:
            metrics_registry().histogram(f"serve_{endpoint}_seconds").observe(
                clock.elapsed_seconds(start_ns)
            )

    def _take_done(self) -> None:
        with contextlib.suppress(BlockingIOError):
            self._wake_r.recv(4096)  # bytes left over wake the loop again
        with self._lock:
            done, self._done = self._done, []
        for conn, status, body in done:
            self._safely(conn, self._finish, status, body)

    def _finish(self, conn: Connection, status: int, body: bytes) -> None:
        conn.busy = False
        self._respond(conn, status, body, conn.keep_alive)
        self._process(conn)  # requests pipelined behind it

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a byte already waiting wakes the loop, or closed
            pass

    def _respond(self, conn: Connection, status: int, body: bytes, keep: bool) -> None:
        """Write one complete HTTP response in a single write."""
        conn.closing = not keep or self.draining
        metrics_registry().counter("serve_requests_count").add(1)
        if status >= 400:
            metrics_registry().counter("serve_errors_count").add(1)
        self._write(conn, http_response(status, body, conn.closing))

    def _write(self, conn: Connection, data: bytes) -> None:
        """Send what the socket takes now; the rest waits until it is writable."""
        data, conn.outbox = conn.outbox + data, b""
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:  # reset by the peer
            self._drop(conn)
            return
        conn.outbox = data[sent:]
        if sent:
            conn.deadline = None  # progress restarts the stall clock
        if not conn.outbox and conn.closing:
            self._drop(conn)

    def _settle(self, conn: Connection) -> None:
        """Set what the selector watches on ``conn``, and its deadline."""
        if conn not in self._open:
            return
        if not (conn.outbox or (conn.buffer and not conn.busy)):
            conn.deadline = None
        elif conn.deadline is None:
            conn.deadline = time.monotonic() + self.timeout
        events = 0 if conn.busy else selectors.EVENT_WRITE if conn.outbox else selectors.EVENT_READ
        if events != conn.events:
            if not conn.events:
                self._selector.register(conn.sock, events, conn)
            elif not events:
                self._selector.unregister(conn.sock)
            else:
                self._selector.modify(conn.sock, events, conn)
            conn.events = events

    def _drop(self, conn: Connection) -> None:
        """Close a connection (idempotent)."""
        if conn not in self._open:
            return
        self._open.discard(conn)
        conn.closing = True
        if conn.events:
            self._selector.unregister(conn.sock)
        conn.sock.close()

    def server_close(self) -> None:
        """Close the listening socket and the accept loop's selector."""
        self.socket.close()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    def close(self) -> None:
        """Stop listening, close idle connections, answer the rest, drain the pools.

        Call it after :meth:`shutdown`: it runs the loop on the calling
        thread until every request in flight, queued or rendering is
        answered or cut off.
        """
        with self._lock:
            if self.draining:  # closed already
                return
            self.draining = True
        self._selector.unregister(self.socket)
        self.socket.close()
        for conn in list(self._open):
            if not (conn.busy or conn.buffer or conn.outbox):
                self._safely(conn, self._step, False)  # a request that has arrived
                if not (conn.busy or conn.buffer or conn.outbox):
                    self._drop(conn)
        while self._open:
            self._poll(self.timeout)
        self.server_close()
        self._handlers.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def run_server(
    host: str = "127.0.0.1",
    port: int = 8077,
    *,
    jobs: int = 0,
    announce: bool = True,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; drain (:meth:`ReproServer.close`)
    and exit 0 — the graceful-shutdown contract CI's serve smoke job asserts."""
    server = ReproServer(host, port, jobs=jobs)
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:  # repro: thread-root -- signal handler
        stop.set()

    previous = {sig: signal.signal(sig, _on_signal) for sig in (signal.SIGINT, signal.SIGTERM)}
    thread = threading.Thread(target=server.serve_forever, name="repro-serve", daemon=False)
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
