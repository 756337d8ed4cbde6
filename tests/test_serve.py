"""Planning-as-a-service: protocol, handlers, HTTP daemon, load generator."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analyzer import Objective
from repro.analyzer.export import plan_to_dict
from repro.arch.spec import AcceleratorSpec
from repro.arch.units import kib
from repro.cli import main
from repro.experiments import cache
from repro.manager import MemoryManager
from repro.nn.zoo import get_model
from repro.report import diagnostics
from repro.serve import handlers, loadgen, protocol
from repro.serve.handlers import execute
from repro.serve.protocol import ProtocolError, canonical_json, parse_plan_request
from repro.serve.server import ReproServer, ServeRequestHandler


class TestProtocol:
    def test_schema_id_pinned_to_diagnostics(self):
        assert protocol.SERVE_SCHEMA_ID == diagnostics.SERVE_SCHEMA_ID
        assert protocol.ENDPOINTS == diagnostics.SERVE_ENDPOINTS

    def test_defaults(self):
        request = parse_plan_request({"model": "ResNet18"})
        assert request.glb_kb == 64
        assert request.scheme == "het"
        assert request.prefetch is True

    def test_roundtrip_params(self):
        params = {"model": "MobileNet", "glb_kb": 128, "objective": "latency"}
        request = parse_plan_request(params)
        assert parse_plan_request(request.to_params()) == request

    @pytest.mark.parametrize(
        "params",
        [
            None,
            [],
            {},
            {"model": ""},
            {"model": 3},
            {"model": "MobileNet", "objektive": "accesses"},
            {"model": "MobileNet", "glb_kb": 0},
            {"model": "MobileNet", "glb_kb": True},
            {"model": "MobileNet", "glb_kb": "64"},
            {"model": "MobileNet", "objective": "speed"},
            {"model": "MobileNet", "scheme": "magic"},
            {"model": "MobileNet", "prefetch": "yes"},
            {"model": "MobileNet", "interlayer_mode": "eager"},
            {"model": "MobileNet", "dram_bandwidth_elems_per_cycle": -1},
            {"model": "MobileNet", "interlayer": True, "scheme": "hom"},
        ],
    )
    def test_bad_requests_rejected(self, params):
        with pytest.raises(ProtocolError) as excinfo:
            handlers._canonical_request("plan", params)
        assert excinfo.value.code == "bad-request"

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("no-such-code", "boom")
        with pytest.raises(ValueError):
            protocol.error_response("plan", "no-such-code", "boom")

    def test_envelopes_validate(self):
        ok = protocol.ok_response("plan", {"plan": {}})
        err = protocol.error_response("plan", "bad-request", "nope")
        assert diagnostics.validate_serve_payload(ok) == []
        assert diagnostics.validate_serve_payload(err) == []

    def test_validator_rejects_drift(self):
        assert diagnostics.validate_serve_payload("not a dict")
        assert diagnostics.validate_serve_payload({"schema": "repro-serve/2"})
        bad_ok = protocol.ok_response("plan", {})
        bad_ok["error"] = {"code": "x", "message": "y"}
        assert diagnostics.validate_serve_payload(bad_ok)
        bad_err = protocol.error_response("plan", "internal", "boom")
        bad_err["error"] = {"code": ""}
        assert diagnostics.validate_serve_payload(bad_err)
        unknown_ok = protocol.ok_response("teleport", {})
        assert diagnostics.validate_serve_payload(unknown_ok)

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestHandlers:
    def test_plan_matches_direct_manager_call(self):
        status, envelope = execute("plan", {"model": "MobileNet", "glb_kb": 64})
        assert status == 200
        assert diagnostics.validate_serve_payload(envelope) == []
        manager = MemoryManager(AcceleratorSpec(glb_bytes=kib(64)))
        direct = manager.plan_cached(get_model("MobileNet"), Objective.ACCESSES)
        assert canonical_json(envelope["result"]["plan"]) == canonical_json(
            plan_to_dict(direct)
        )

    def test_plan_warm_request_hits_cache(self):
        params = {"model": "MobileNet", "glb_kb": 64}
        execute("plan", params)
        status, envelope = execute("plan", params)
        assert status == 200
        assert envelope["result"]["cache"]["hit"] is True
        assert len(envelope["result"]["cache"]["key"]) == 64

    def test_unknown_model_is_structured_404(self):
        status, envelope = execute("plan", {"model": "SkyNet"})
        assert status == 404
        assert envelope["error"]["code"] == "unknown-model"
        assert diagnostics.validate_serve_payload(envelope) == []

    def test_model_name_is_case_insensitive(self):
        status, envelope = execute("plan", {"model": "mobilenet", "glb_kb": 64})
        assert status == 200
        assert envelope["result"]["request"]["model"] == "MobileNet"

    def test_unknown_endpoint_is_structured_404(self):
        status, envelope = execute("teleport", None)
        assert status == 404
        assert envelope["error"]["code"] == "unknown-endpoint"
        assert diagnostics.validate_serve_payload(envelope) == []

    def test_unknown_policy_family_is_bad_request(self):
        status, envelope = execute(
            "plan", {"model": "MobileNet", "glb_kb": 64, "scheme": "hom(px)"}
        )
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"
        assert diagnostics.validate_serve_payload(envelope) == []

    @pytest.mark.parametrize("scheme", ["hom(p99)", "hom(tiled)"])
    def test_unknown_scheme_is_bad_request_before_any_lookup(self, scheme, monkeypatch):
        def lookup(key):
            raise AssertionError("cache lookup for an unservable scheme")

        monkeypatch.setattr(cache, "lookup", lookup)
        for endpoint in protocol.POST_ENDPOINTS:
            status, body = handlers.respond(endpoint, {"model": "MobileNet", "scheme": scheme})
            envelope = json.loads(body)
            assert status == 400
            assert envelope["error"]["code"] == "bad-request"
            assert "hom(p1)" in envelope["error"]["message"]

    @pytest.mark.parametrize(
        ("endpoint", "field", "value"),
        [
            (endpoint, field, value)
            for endpoint in protocol.POST_ENDPOINTS
            for field, value in (
                ("glb_kb", 10**9),
                ("data_width_bits", 7),
                ("data_width_bits", 64),
                ("ops_per_cycle", 10**12),
                ("dram_bandwidth_elems_per_cycle", 1e300),
                ("dram_bandwidth_elems_per_cycle", float("nan")),
            )
        ]
        + [("simulate", "glb_kb", 1)],
    )
    def test_unservable_spec_is_bad_request(self, endpoint, field, value):
        params = {"model": "MobileNet", field: value}
        assert handlers.reply_key(endpoint, params) is None
        counters = cache.counters()
        status, body = handlers.respond(endpoint, params)
        envelope = json.loads(body)
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"
        assert diagnostics.validate_serve_payload(envelope) == []
        assert cache.counters() == counters  # no cache lookup, no miss

    def test_models_lists_zoo(self):
        status, envelope = execute("models")
        assert status == 200
        names = [m["name"] for m in envelope["result"]["models"]]
        assert "ResNet18" in names and "MobileNet" in names

    def test_health_and_stats(self):
        status, envelope = execute("health")
        assert status == 200 and envelope["result"]["status"] == "ok"
        status, envelope = execute("stats")
        assert status == 200
        assert set(envelope["result"]["cache"]["counters"]) == {
            "hits", "misses", "stores", "evictions",
        }

    def test_explain_and_simulate(self):
        status, envelope = execute("explain", {"model": "MobileNet", "glb_kb": 64})
        assert status == 200
        assert envelope["result"]["explain"]["layers"]
        status, envelope = execute("simulate", {"model": "MobileNet", "glb_kb": 64})
        assert status == 200
        assert set(envelope["result"]["baselines"]) == {
            "sa_25_75", "sa_50_50", "sa_75_25",
        }


@pytest.fixture(scope="module")
def daemon():
    """An in-process daemon on an ephemeral port, shared by HTTP tests."""
    server = ReproServer("127.0.0.1", 0, jobs=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.port}"
    server.shutdown()
    thread.join()
    server.close()


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return int(response.status), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return int(exc.code), json.loads(exc.read())


def _post(url: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return int(response.status), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return int(exc.code), json.loads(exc.read())


def _exchange(port: int, *parts: bytes, pause: float = 0.0) -> tuple[bytes, bytes]:
    """Send ``parts`` on a fresh socket, ``pause`` seconds apart, and read
    until the daemon closes it; returns the response head and body."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        for index, part in enumerate(parts):
            if index:
                time.sleep(pause)
            sock.sendall(part)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head, "the daemon closed the connection without a response"
    return head, body


def _status(head: bytes) -> int:
    return int(head.split()[1])


class TestHttpDaemon:
    def test_health(self, daemon):
        status, envelope = _get(f"{daemon}/health")
        assert status == 200 and envelope["ok"] is True
        assert diagnostics.validate_serve_payload(envelope) == []

    def test_plan_and_warm_hit(self, daemon):
        body = json.dumps({"model": "MobileNet", "glb_kb": 64}).encode()
        status, envelope = _post(f"{daemon}/plan", body)
        assert status == 200
        assert diagnostics.validate_serve_payload(envelope) == []
        status, warm = _post(f"{daemon}/plan", body)
        assert warm["result"]["cache"]["hit"] is True

    def test_malformed_json_is_400_envelope(self, daemon):
        status, envelope = _post(f"{daemon}/plan", b"{not json")
        assert status == 400
        assert envelope["error"]["code"] == "invalid-json"
        assert diagnostics.validate_serve_payload(envelope) == []

    @pytest.mark.parametrize(
        "declared", [b"abc", b"-1", b"\xb2"], ids=["word", "negative", "superscript-two"]
    )
    def test_bad_content_length_is_400_envelope(self, daemon, declared):
        # "-1" once read the body to end of stream, so the reply waited
        # for the client to hang up; the socket timeout bounds that here.
        port = int(daemon.rsplit(":", 1)[1])
        head, body = _exchange(
            port,
            b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n{}" % declared,
        )
        assert _status(head) == 400
        assert b"Connection: close" in head
        envelope = json.loads(body)
        assert envelope["error"]["code"] == "bad-request"
        assert diagnostics.validate_serve_payload(envelope) == []

    @pytest.mark.parametrize(
        ("request_bytes", "status"),
        [
            (b"PUT /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}", 501),
            (b"GARBAGE\r\n\r\n", 400),
        ],
        ids=["unsupported-method", "malformed-request-line"],
    )
    def test_request_http_server_rejects_is_envelope(self, daemon, request_bytes, status):
        port = int(daemon.rsplit(":", 1)[1])
        head, body = _exchange(port, request_bytes)
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"Connection: close" in head
        envelope = json.loads(body)
        assert envelope["error"]["code"] == "bad-request"
        assert diagnostics.validate_serve_payload(envelope) == []

    def test_unknown_endpoint_is_404_envelope(self, daemon):
        status, envelope = _get(f"{daemon}/nonsense")
        assert status == 404
        assert envelope["error"]["code"] == "unknown-endpoint"
        assert diagnostics.validate_serve_payload(envelope) == []

    def test_wrong_method_is_405_envelope(self, daemon):
        status, envelope = _get(f"{daemon}/plan")
        assert status == 405
        assert envelope["error"]["code"] == "bad-request"
        status, envelope = _post(f"{daemon}/stats", b"{}")
        assert status == 405
        assert envelope["error"]["code"] == "bad-request"

    def test_keep_alive_responses_do_not_stall(self, daemon):
        body = json.dumps({"model": "MobileNet", "glb_kb": 48}).encode()
        port = int(daemon.rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for _ in range(2):  # plan, then store the reply entry
                connection.request("POST", "/plan", body)
                assert connection.getresponse().read()
            start = time.perf_counter()
            for index in range(20):
                if index % 2:
                    connection.request("POST", "/plan", body)
                else:
                    connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        # A response written in two parts waits ~40 ms for the delayed ACK.
        assert elapsed < 0.5, f"20 kept-alive requests took {elapsed:.3f} s"

    def test_unknown_model_http(self, daemon):
        status, envelope = _post(
            f"{daemon}/plan", json.dumps({"model": "SkyNet"}).encode()
        )
        assert status == 404
        assert envelope["error"]["code"] == "unknown-model"


def _spawn_daemon(tmp_path) -> tuple[subprocess.Popen, str]:
    """``repro serve`` in a subprocess on an ephemeral port, and its URL."""
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    return proc, proc.stdout.readline().split()[-2]


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, url = _spawn_daemon(tmp_path)
        try:
            status, envelope = _post(
                f"{url}/plan",
                json.dumps({"model": "MobileNet", "glb_kb": 32}).encode(),
            )
            assert status == 200 and envelope["ok"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert "drained, exiting 0" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_sigterm_closes_idle_keep_alive_connection(self, tmp_path):
        proc, url = _spawn_daemon(tmp_path)
        port = int(url.rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200 and response.read()
            # The connection stays open and idle while the daemon drains.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
        finally:
            connection.close()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_sigterm_answers_the_request_in_flight(self, tmp_path):
        proc, url = _spawn_daemon(tmp_path)
        port = int(url.rsplit(":", 1)[1])
        body = json.dumps({"model": "MobileNet", "glb_kb": 32}).encode()
        head = b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
        try:
            # Headers now, the body after the SIGTERM: the request is in
            # flight for the whole start of the drain.
            sender = threading.Timer(0.3, proc.send_signal, (signal.SIGTERM,))
            sender.start()
            reply_head, reply_body = _exchange(port, head, body, pause=1.5)
            sender.join()
            assert _status(reply_head) == 200
            assert b"Connection: close" in reply_head
            assert json.loads(reply_body)["ok"] is True
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_sigterm_after_a_connect_burst_exits_zero(self, tmp_path):
        # With the client and the daemon on one CPU, a burst of bare
        # connects leaves the daemon with handler threads the kernel may
        # hand the signal to; the main thread must still act on it.
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(affinity)})
        proc, url = _spawn_daemon(tmp_path)
        try:
            os.sched_setaffinity(proc.pid, {min(affinity)})
            port = int(url.rsplit(":", 1)[1])
            deadline = time.monotonic() + 60
            for _ in range(200):
                if time.monotonic() > deadline:
                    break
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=2).close()
                except OSError:
                    pass
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            os.sched_setaffinity(0, affinity)
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_listen_backlog_absorbs_a_connect_burst(self):
        # Nothing accepts here, so every connect waits in the backlog; a
        # full backlog drops the SYN and the connect times out.
        server = ReproServer(port=0)
        connections = []
        try:
            for _ in range(64):
                connections.append(
                    socket.create_connection(("127.0.0.1", server.port), timeout=0.5)
                )
        finally:
            for connection in connections:
                connection.close()
            server.server_close()


@pytest.fixture
def small_pool(monkeypatch):
    """A daemon factory with two handler threads and a 30 s socket timeout,
    longer than any of these tests waits for a reply."""
    monkeypatch.setattr(ReproServer, "handler_threads", 2)
    monkeypatch.setattr(ServeRequestHandler, "timeout", 30.0)
    servers = []

    def start() -> ReproServer:
        server = ReproServer("127.0.0.1", 0, jobs=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.close()


def _health(connection: http.client.HTTPConnection) -> float:
    """GET /health on ``connection``; the seconds until its reply was read."""
    start = time.perf_counter()
    connection.request("GET", "/health")
    response = connection.getresponse()
    assert response.status == 200 and json.loads(response.read())["ok"] is True
    return time.perf_counter() - start


class TestHandlerPool:
    def test_sequential_requests_reuse_pool_threads(self, small_pool, monkeypatch):
        served: set[threading.Thread] = set()
        handle_one_request = ServeRequestHandler.handle_one_request

        def recording(self):
            served.add(threading.current_thread())
            handle_one_request(self)

        monkeypatch.setattr(ServeRequestHandler, "handle_one_request", recording)
        server = small_pool()
        for _ in range(50):
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                _health(connection)
            finally:
                connection.close()
        assert 1 <= len(served) <= ReproServer.handler_threads

    def test_idle_connections_hold_no_handler_thread(self, small_pool):
        server = small_pool()
        kept = [
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            for _ in range(ReproServer.handler_threads)
        ]
        bare = [
            socket.create_connection(("127.0.0.1", server.port), timeout=10)
            for _ in range(ReproServer.handler_threads)
        ]
        try:
            for connection in kept:  # answered once, then idle
                _health(connection)
            fresh = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                assert _health(fresh) < 2.0
            finally:
                fresh.close()
        finally:
            for connection in kept:
                connection.close()
            for sock in bare:
                sock.close()

    def test_more_busy_keep_alive_clients_than_threads_are_all_answered(self, small_pool):
        # Every client sends again at once, so none of the connections
        # ever idles long enough to be timed out.
        server = small_pool()
        clients = [
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            for _ in range(ReproServer.handler_threads + 1)
        ]
        try:
            waits = [_health(client) for _ in range(10) for client in clients]
        finally:
            for client in clients:
                client.close()
        assert max(waits) < 2.0, max(waits)

    def test_keep_alive_connection_is_reused_after_idling_past_the_timeout(
        self, small_pool, monkeypatch
    ):
        monkeypatch.setattr(ServeRequestHandler, "timeout", 0.2)
        server = small_pool()
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            _health(connection)
            sock = connection.sock
            time.sleep(1.0)
            _health(connection)
            assert connection.sock is sock  # the same connection, not a reconnect
        finally:
            connection.close()

    def test_a_stalled_request_is_cut_off_after_the_timeout(self, small_pool, monkeypatch):
        monkeypatch.setattr(ServeRequestHandler, "timeout", 0.5)
        server = small_pool()
        # Headers that promise a body which never comes hold a thread each.
        stalled = [
            socket.create_connection(("127.0.0.1", server.port), timeout=10)
            for _ in range(ReproServer.handler_threads)
        ]
        try:
            for sock in stalled:
                sock.sendall(b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n")
            time.sleep(0.1)
            fresh = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                assert _health(fresh) < ServeRequestHandler.timeout + 2.0
            finally:
                fresh.close()
            for sock in stalled:  # cut off without a reply
                assert sock.recv(1) == b""
        finally:
            for sock in stalled:
                sock.close()

    def test_pipelined_requests_are_all_answered(self, small_pool):
        # The second request is read into the first one's buffer, where
        # the accept loop's selector cannot see it.
        server = small_pool()
        request = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(request * 2 + request.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"))
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        assert b"".join(chunks).count(b"HTTP/1.1 200 OK") == 3

    def test_drain_answers_connections_queued_for_the_pool(self, small_pool):
        server = small_pool()
        body = json.dumps({"model": "MobileNet", "glb_kb": 64}).encode()
        head = b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
        # Both handler threads wait for the rest of a body, so the third
        # connection queues; the drain begins while it waits.
        replies: list[tuple[bytes, bytes]] = []
        clients = [
            threading.Thread(
                target=lambda: replies.append(_exchange(server.port, head, body, pause=0.8))
            )
            for _ in range(ReproServer.handler_threads)
        ]
        for client in clients:
            client.start()
        time.sleep(0.2)
        queued = threading.Thread(
            target=lambda: replies.append(_exchange(server.port, head + body))
        )
        queued.start()
        time.sleep(0.2)
        server.shutdown()
        drain = threading.Thread(target=server.close)
        drain.start()
        for thread in (*clients, queued, drain):
            thread.join(timeout=30)
        assert not drain.is_alive()
        assert len(replies) == ReproServer.handler_threads + 1
        for reply_head, reply_body in replies:
            assert _status(reply_head) == 200, reply_body
            assert b"Connection: close" in reply_head
            assert json.loads(reply_body)["ok"] is True


class TestLoadGenerator:
    def test_request_mix_is_deterministic(self):
        first = loadgen.request_mix(7, 16)
        second = loadgen.request_mix(7, 16)
        assert first == second
        assert loadgen.request_mix(8, 16) != first
        assert {job.endpoint for job in first} <= {"plan", "explain", "simulate"}

    def test_bench_serve_in_process(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        report = loadgen.bench_serve(
            clients=2,
            requests=8,
            seed=1,
            models=("MobileNet",),
            glb_kb=(64,),
            out=out,
        )
        assert report.error_count == 0
        assert report.byte_identical is True
        record = json.loads(out.read_text())
        assert record["schema"] == 1 and record["kind"] == "serve"
        assert record["requests"] == 8
        assert set(record["latency_seconds"]) == {"p50", "p99", "mean"}
        # the same seed over a warm cache must hit nearly always
        warm = loadgen.bench_serve(
            clients=2,
            requests=8,
            seed=1,
            models=("MobileNet",),
            glb_kb=(64,),
            out=None,
        )
        assert warm.hit_rate >= 0.9

    def test_bench_cli(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        assert (
            main(
                [
                    "bench", "serve",
                    "--clients", "2",
                    "--requests", "6",
                    "--models", "MobileNet",
                    "--glb", "64",
                    "--out", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "byte-identical" in printed and "True" in printed
        assert json.loads(out.read_text())["errors"] == 0

    def test_percentile_edges(self):
        assert loadgen._percentile([], 0.5) == 0.0
        assert loadgen._percentile([1.0], 0.99) == 1.0
        assert loadgen._percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
