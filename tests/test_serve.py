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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.serve import server as server_module
from repro.serve.server import ReproServer


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
        direct, _hit, _key = manager.plan_cached(get_model("MobileNet"), Objective.ACCESSES)
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


#: JSON leaves a client may send: NaN, ±inf, huge ints and wrong types.
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, 1e300, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)
#: Values that pass the type checks of some known field, so draws reach
#: the spec bounds and the planner too.
_PLAUSIBLE = st.sampled_from(
    ["MobileNet", "resnet18", "SkyNet", "", "hom", "het", "hom(p1)", "joint",
     "latency", True, False, 0, 1, 8, 16, 64, 256, -64, 7, 10**9, 2.5]
)
_FIELDS = st.sampled_from(sorted(protocol.PlanRequest.__dataclass_fields__))


class TestHandlerFuzz:
    """Random JSON request bodies get a structured answer, never a 500."""

    def test_every_answer_is_a_valid_envelope(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
        bodies = st.one_of(
            _JSON,
            st.dictionaries(
                st.one_of(_FIELDS, st.text(max_size=8)),
                st.one_of(_PLAUSIBLE, _JSON),
                max_size=5,
            ),
            st.builds(
                lambda model, extra: {"model": model, **extra},
                _PLAUSIBLE,
                st.dictionaries(_FIELDS, st.one_of(_PLAUSIBLE, _JSON), max_size=4),
            ),
        )

        @settings(max_examples=150, deadline=None, database=None)
        @given(endpoint=st.sampled_from(protocol.POST_ENDPOINTS), body=bodies)
        def check(endpoint: str, body: object) -> None:
            status, envelope = execute(endpoint, body)
            assert status in (200, 400, 404), envelope
            assert diagnostics.validate_serve_payload(envelope) == []
            assert envelope["ok"] is (status == 200)

        check()


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
        # The second body is not UTF-8, so decoding fails before parsing.
        for body in (b"{not json", b'{"model": "\xe4"}'):
            status, envelope = _post(f"{daemon}/plan", body)
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
    """A daemon factory with two handler threads and a 30 s stall timeout,
    longer than any of these tests waits for a reply."""
    monkeypatch.setattr(ReproServer, "handler_threads", 2)
    monkeypatch.setattr(ReproServer, "timeout", 30.0)
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
        handle = ReproServer.handle

        def recording(self, *args):
            served.add(threading.current_thread())
            handle(self, *args)

        monkeypatch.setattr(ReproServer, "handle", recording)
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
        monkeypatch.setattr(ReproServer, "timeout", 0.2)
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
        monkeypatch.setattr(ReproServer, "timeout", 0.5)
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
                assert _health(fresh) < ReproServer.timeout + 2.0
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

    def test_drain_answers_connections_queued_for_the_pool(self, small_pool, monkeypatch):
        server = small_pool()
        url = f"http://127.0.0.1:{server.port}/plan"
        hit = json.dumps({"model": "MobileNet", "glb_kb": 64}).encode()
        for _ in range(2):  # plan, then store the reply entry
            assert _post(url, hit)[0] == 200
        release = _block_rendering(monkeypatch)
        # Both handler threads render a fresh GLB size and the third
        # fresh one queues for them; the fourth request and the reply
        # hit are still arriving when the drain begins.
        replies: dict[str, tuple[bytes, bytes]] = {}

        def send(name: str, body: bytes, pause: float | None = None) -> threading.Thread:
            head = _post_head(len(body))
            parts = (head + body,) if pause is None else (head, body)

            def client() -> None:
                replies[name] = _exchange(server.port, *parts, pause=pause or 0.0)

            thread = threading.Thread(target=client)
            thread.start()
            return thread

        clients = [send(f"fresh-{kb}", _plan_body(kb)) for kb in (40, 44)]
        time.sleep(0.2)
        clients.append(send("queued", _plan_body(52)))
        clients.append(send("in-flight", _plan_body(56), pause=0.8))
        clients.append(send("hit", hit, pause=0.8))
        time.sleep(0.2)
        server.shutdown()
        drain = threading.Thread(target=server.close)
        drain.start()
        clients[-1].join(timeout=10)
        assert "hit" in replies, "a reply hit waited for a handler thread"
        assert len(replies) == 1
        release.set()
        for thread in (*clients, drain):
            thread.join(timeout=30)
        assert not drain.is_alive()
        assert sorted(replies) == ["fresh-40", "fresh-44", "hit", "in-flight", "queued"]
        for reply_head, reply_body in replies.values():
            assert _status(reply_head) == 200, reply_body
            assert b"Connection: close" in reply_head
            assert json.loads(reply_body)["ok"] is True
        assert json.loads(replies["hit"][1])["result"]["cache"]["hit"] is True


def _plan_body(glb_kb: int) -> bytes:
    return json.dumps({"model": "MobileNet", "glb_kb": glb_kb}).encode()


def _post_head(length: int, path: str = "/plan", extra: bytes = b"") -> bytes:
    return b"POST %s HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n" % (
        path.encode(), extra, length
    )


def _block_rendering(monkeypatch) -> threading.Event:
    """Make every render wait until the returned event is set."""
    release = threading.Event()
    execute = handlers.execute

    def blocked(endpoint, params=None):
        release.wait(30)
        return execute(endpoint, params)

    monkeypatch.setattr(handlers, "execute", blocked)
    return release


class TestAcceptLoop:
    """Reply hits are answered on the accept loop, which never blocks."""

    def _warm(self, port: int, endpoint: str, body: bytes) -> None:
        for _ in range(2):  # plan, then store the reply entry
            assert _post(f"http://127.0.0.1:{port}/{endpoint}", body)[0] == 200

    def test_hit_is_answered_while_every_handler_thread_is_blocked(
        self, small_pool, monkeypatch
    ):
        server = small_pool()
        hit = _plan_body(64)
        self._warm(server.port, "plan", hit)
        release = _block_rendering(monkeypatch)
        busy = [
            threading.Thread(
                target=_exchange,
                args=(server.port, _post_head(len(b), extra=b"Connection: close\r\n") + b),
            )
            for b in (_plan_body(60), _plan_body(72))
        ]
        try:
            for thread in busy:
                thread.start()
            time.sleep(0.2)
            start = time.perf_counter()
            status, envelope = _post(f"http://127.0.0.1:{server.port}/plan", hit)
            assert time.perf_counter() - start < 1.0
            assert status == 200 and envelope["result"]["cache"]["hit"] is True
        finally:
            release.set()
            for thread in busy:
                thread.join(timeout=30)
                assert not thread.is_alive()

    def test_hit_reaches_no_process_pool_with_jobs(self, monkeypatch):
        server = ReproServer("127.0.0.1", 0, jobs=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = _plan_body(80)
            self._warm(server.port, "plan", body)

            def submit(*args, **kwargs):
                raise AssertionError("a reply hit was submitted to the process pool")

            monkeypatch.setattr(server._pool, "submit", submit)
            status, envelope = _post(f"http://127.0.0.1:{server.port}/plan", body)
            assert status == 200 and envelope["result"]["cache"]["hit"] is True
        finally:
            server.shutdown()
            thread.join()
            server.close()

    def test_workers_fork_before_any_serve_thread_runs(self, monkeypatch, tmp_path):
        """A worker forked while the accept loop or a handler thread runs
        could inherit a lock (metrics, cache) that thread holds."""
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
        before = set(threading.enumerate())
        forks: list[list[str]] = []
        recording = [True]

        def record() -> None:
            if recording[0]:
                forks.append([t.name for t in threading.enumerate() if t not in before])

        os.register_at_fork(before=record)  # cannot be unregistered: gated by `recording`
        server = ReproServer("127.0.0.1", 0, jobs=1)
        thread = threading.Thread(target=server.serve_forever, name="repro-serve", daemon=True)
        thread.start()
        try:
            status, envelope = _post(f"http://127.0.0.1:{server.port}/plan", _plan_body(88))
            assert status == 200 and envelope["result"]["cache"]["hit"] is False
        finally:
            server.shutdown()
            thread.join()
            server.close()
            recording[0] = False
        # No thread this test started (the loop "repro-serve", the handler
        # pool "repro-serve-handler_N") may be alive at any fork.
        assert forks and not any(forks), forks

    def test_hit_sent_as_head_and_body_apart_is_answered(self, small_pool, monkeypatch):
        server = small_pool()
        body = _plan_body(64)
        self._warm(server.port, "plan", body)

        def render(*args):
            raise AssertionError("a reply hit was rendered")

        monkeypatch.setattr(handlers, "render", render)
        head = _post_head(len(body), extra=b"Connection: close\r\n")
        reply_head, reply_body = _exchange(server.port, head, body, pause=0.3)
        assert _status(reply_head) == 200
        assert json.loads(reply_body)["result"]["cache"]["hit"] is True

    def test_client_that_never_reads_does_not_delay_others(self, small_pool):
        server = small_pool()
        body = json.dumps({"model": "EfficientNetB0", "glb_kb": 64}).encode()
        self._warm(server.port, "explain", body)  # a reply of about 250 KB
        # Accepted sockets inherit the small send buffer, so the reply
        # cannot all go out before the client reads.
        server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(10)
        try:
            slow.connect(("127.0.0.1", server.port))
            slow.sendall(_post_head(len(body), "/explain", b"Connection: close\r\n") + body)
            time.sleep(0.3)  # the loop has sent what the socket takes
            fresh = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                assert _health(fresh) < 1.0
            finally:
                fresh.close()
            chunks = []  # the rest of the reply follows once the client reads
            while chunk := slow.recv(65536):
                chunks.append(chunk)
        finally:
            slow.close()
        reply_head, _, reply_body = b"".join(chunks).partition(b"\r\n\r\n")
        assert _status(reply_head) == 200
        assert len(reply_body) > 100_000
        assert json.loads(reply_body)["result"]["cache"]["hit"] is True

    def test_many_clients_with_fast_thread_switches_are_each_answered(self, small_pool):
        # Handler threads hand every rendered reply back through one
        # locked list; a lost hand-off would leave a client waiting.
        server = small_pool()
        hit = _plan_body(64)
        self._warm(server.port, "plan", hit)
        answered: list[int] = []
        interval = sys.getswitchinterval()

        def client() -> None:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=20)
            try:
                for index in range(25):
                    if index % 2:
                        status, envelope = _post(f"http://127.0.0.1:{server.port}/plan", hit)
                        assert status == 200 and envelope["result"]["cache"]["hit"] is True
                    else:
                        _health(connection)
                    answered.append(index)
            finally:
                connection.close()

        clients = [threading.Thread(target=client) for _ in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(answered) == 8 * 25

    def test_lookup_fault_on_the_loop_is_500_and_the_loop_goes_on(
        self, small_pool, monkeypatch
    ):
        server = small_pool()

        def lookup(key):
            raise OSError("disk on fire")

        monkeypatch.setattr(cache, "lookup", lookup)
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request("POST", "/plan", _plan_body(64))
            response = connection.getresponse()
            envelope = json.loads(response.read())
            assert response.status == 500
            assert envelope["error"]["code"] == "internal"
            assert "disk on fire" in envelope["error"]["message"]
            assert diagnostics.validate_serve_payload(envelope) == []
            _health(connection)  # the same connection, then a fresh one
        finally:
            connection.close()
        fresh = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            _health(fresh)
        finally:
            fresh.close()


def _post_bytes(path: str, body: bytes, extra: bytes = b"") -> bytes:
    return _post_head(len(body), path, extra) + body


#: Complete requests with whether the daemon closes after answering.
_FUZZ_REQUESTS: list[tuple[bytes, bool]] = [
    (b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n", False),
    (b"GET /health?x=1 HTTP/1.0\r\n\r\n", True),
    (b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", False),
    (b"GET /nonsense HTTP/1.1\r\n\r\n", False),
    (b"GET /plan HTTP/1.1\r\n\r\n", False),
    (_post_bytes("/plan", b'{"model": "SkyNet"}'), False),
    (_post_bytes("/plan", b"{not json"), False),
    (_post_bytes("/plan", b'{"model": "\xe4"}'), False),
    (_post_bytes("/stats", b""), False),
    (_post_bytes("/plan", b"{}", b"Connection: close\r\n"), True),
    (b"PUT /plan HTTP/1.1\r\nContent-Length: 0\r\n\r\n", True),
    (b"POST /plan HTTP/1.1\r\nContent-Length: abc\r\n\r\n", True),
    (b"POST /plan HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", True),
    (b"GET /health HTTP/2.0\r\n\r\n", True),
    (b"GET /health HTTP/1.x\r\n\r\n", True),
    (b"GET / health HTTP/1.1\r\n\r\n", True),
    (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", True),
    (b"GET / HTTP/1.1\r\nX: " + b"a" * 70_000 + b"\r\n\r\n", True),
    (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n", True),
]


def _responses(stream: bytes) -> list[tuple[int, bytes, bytes]]:
    """Split a received byte stream into (status, head, body) responses."""
    responses = []
    while stream:
        head, sep, rest = stream.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.1 "), stream[:200]
        status = _status(head)
        if status == 100:  # an interim reply carries no body
            stream = rest
            continue
        (length,) = [
            int(line.split(b":", 1)[1]) for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        ]
        assert len(rest) >= length, "a response was cut short"
        responses.append((status, head, rest[:length]))
        stream = rest[length:]
    return responses


class TestRequestReaderFuzz:
    """Raw byte streams, cut at random points, never fault the accept loop."""

    def test_every_answer_is_an_envelope_and_the_loop_survives(self, small_pool, monkeypatch):
        server = small_pool()
        faults: list[object] = []
        monkeypatch.setattr(server_module.traceback, "print_exc", lambda: faults.append(sys.exc_info()))
        requests = st.sampled_from(range(len(_FUZZ_REQUESTS)))
        junk = st.one_of(
            st.binary(max_size=64),
            st.builds(lambda i, n: _FUZZ_REQUESTS[i][0][:n], requests, st.integers(0, 80)),
        )
        pieces = st.lists(st.one_of(requests, junk), min_size=1, max_size=5)

        @settings(
            max_examples=200, deadline=None, database=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
        )
        @given(pieces=pieces, cuts=st.lists(st.integers(1, 200), max_size=6))
        def check(pieces: list[int | bytes], cuts: list[int]) -> None:
            stream = b"".join(p if isinstance(p, bytes) else _FUZZ_REQUESTS[p][0] for p in pieces)
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    for cut in [*cuts, len(stream)]:
                        chunk, stream = stream[:cut], stream[cut:]
                        sock.sendall(chunk)
                        time.sleep(0.001)
                    sock.shutdown(socket.SHUT_WR)
                except OSError:  # the daemon closed first; what it sent is kept
                    pass
                received = []
                try:
                    while chunk := sock.recv(65536):
                        received.append(chunk)
                except ConnectionResetError:
                    pass
            responses = _responses(b"".join(received))
            for status, head, body in responses:
                assert diagnostics.validate_serve_payload(json.loads(body)) == [], body
                assert (status >= 400) is (b"HTTP/1.1 200 " not in head)
            # A stream of whole requests is answered up to the first that closes.
            if all(isinstance(p, int) for p in pieces):
                closes = [_FUZZ_REQUESTS[p][1] for p in pieces]
                expected = closes.index(True) + 1 if True in closes else len(pieces)
                assert len(responses) == expected, (pieces, responses)
                assert (b"Connection: close" in responses[-1][1]) is (True in closes)

        check()
        assert faults == []
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            _health(connection)
        finally:
            connection.close()


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

    def test_bench_record_reports_the_daemons_cache(self, tmp_path, monkeypatch):
        proc, url = _spawn_daemon(tmp_path)  # its own REPRO_CACHE_DIR
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "client"))
        out = tmp_path / "BENCH_serve.json"
        try:
            loadgen.bench_serve(
                clients=2, requests=6, seed=3, url=url,
                models=("MobileNet",), glb_kb=(64,), out=out,
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        recorded = json.loads(out.read_text())["cache"]
        client_entries = cache.entry_count()  # the byte-identity oracle's plans
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
        assert recorded["dir"] == str(cache.cache_dir())
        assert recorded["entries"] == cache.entry_count() != client_entries

    def test_percentile_edges(self):
        assert loadgen._percentile([], 0.5) == 0.0
        assert loadgen._percentile([1.0], 0.99) == 1.0
        assert loadgen._percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
