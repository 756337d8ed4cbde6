"""Reply entries: the daemon's stored response bodies (``handlers.respond``).

Every body ``respond`` returns must equal ``canonical_json`` of a fresh
``execute`` envelope for the same cache state, whether it was rendered
or read back from a reply entry.
"""

from __future__ import annotations

import http.client
import json
import pickle
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import cache
from repro.nn.zoo import PAPER_MODEL_NAMES
from repro.obs import disable_tracing, enable_tracing
from repro.serve import handlers
from repro.serve.protocol import POST_ENDPOINTS, canonical_json, error_response
from repro.serve.server import ReproServer

REQUEST = {"model": "MobileNet", "glb_kb": 64}


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh cache directory for one test."""
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    return tmp_path / "cache"


def _reference(monkeypatch, tmp_path, endpoint, params, count=3):
    """``canonical_json(execute(...))`` bodies for ``count`` identical
    requests against their own fresh cache directory."""
    with monkeypatch.context() as patch:
        patch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "reference"))
        bodies = []
        for _ in range(count):
            status, envelope = handlers.execute(endpoint, params)
            assert status == 200
            bodies.append(canonical_json(envelope))
    return bodies


def _hit(body):
    return json.loads(body)["result"]["cache"]["hit"]


def _entry_path(key):
    return cache.cache_dir() / key[:2] / f"{key}.pkl"


def _reply_path(endpoint, params):
    return _entry_path(handlers.reply_key(endpoint, params))


class _CountingExecute:
    """Wraps ``handlers.execute`` and counts renders."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._execute = handlers.execute
        monkeypatch.setattr(handlers, "execute", self)

    def __call__(self, endpoint, params=None):
        self.calls += 1
        return self._execute(endpoint, params)


@pytest.mark.parametrize("endpoint", POST_ENDPOINTS)
def test_repeated_requests_match_fresh_renders(endpoint, cache_dir, tmp_path, monkeypatch):
    expected = _reference(monkeypatch, tmp_path, endpoint, REQUEST)
    served = [handlers.respond(endpoint, REQUEST) for _ in range(3)]
    assert [status for status, _ in served] == [200, 200, 200]
    assert [body for _, body in served] == expected
    assert [_hit(body) for _, body in served] == [False, True, True]
    assert _reply_path(endpoint, REQUEST).is_file()


def test_third_request_is_served_without_rendering(cache_dir, monkeypatch):
    handlers.respond("plan", REQUEST)
    renders = _CountingExecute(monkeypatch)
    handlers.respond("plan", REQUEST)
    assert renders.calls == 0
    handlers.respond("plan", REQUEST)
    assert renders.calls == 0


def test_errors_store_no_reply_and_a_miss_stores_the_hit_body(cache_dir, tmp_path, monkeypatch):
    expected = _reference(monkeypatch, tmp_path, "simulate", REQUEST, count=2)
    handlers.respond("simulate", REQUEST)
    assert cache.lookup(handlers.reply_key("simulate", REQUEST)) == (True, expected[1])
    unknown_family = {**REQUEST, "scheme": "hom(px)"}
    for _ in range(2):
        status, _ = handlers.respond("plan", unknown_family)
        assert status == 400
    assert handlers.reply_key("plan", unknown_family) is None
    for _ in range(2):
        status, _ = handlers.respond("plan", {"model": "SkyNet"})
        assert status == 404
    assert handlers.reply_key("plan", {"model": "SkyNet"}) is None


def test_interleaved_repeats_render_each_reply_key_once(cache_dir, tmp_path, monkeypatch):
    configs = (REQUEST, {"model": "ResNet18", "glb_kb": 128, "interlayer": True})
    sequence = [
        (endpoint, params)
        for _ in range(3)
        for params in configs
        for endpoint in ("plan", "explain", "simulate")
    ]
    with monkeypatch.context() as patch:
        patch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "reference"))
        expected = [canonical_json(handlers.execute(*request)[1]) for request in sequence]
    renders = _CountingExecute(monkeypatch)
    served = [handlers.respond(*request) for request in sequence]
    assert [body for _, body in served] == expected
    assert renders.calls == len({handlers.reply_key(*request) for request in sequence}) == 6


@pytest.mark.parametrize("model", PAPER_MODEL_NAMES)
@pytest.mark.parametrize("endpoint", POST_ENDPOINTS)
def test_a_miss_stores_the_body_its_hit_renders(endpoint, model, cache_dir, monkeypatch):
    params = {"model": model, "glb_kb": 64}
    envelopes = []
    execute = handlers.execute

    def capturing(*request):
        status, envelope = execute(*request)
        envelopes.append(envelope)
        return status, envelope

    monkeypatch.setattr(handlers, "execute", capturing)
    status, body = handlers.respond(endpoint, params)
    assert status == 200 and body == canonical_json(envelopes[0])
    envelopes[0]["result"]["cache"]["hit"] = True
    stored = cache.lookup(handlers.reply_key(endpoint, params))[1]
    assert stored == canonical_json(envelopes[0])
    assert stored == canonical_json(execute(endpoint, params)[1])


def test_truncated_reply_is_deleted_and_rerendered(cache_dir, tmp_path, monkeypatch):
    expected = _reference(monkeypatch, tmp_path, "explain", REQUEST)
    for _ in range(2):
        handlers.respond("explain", REQUEST)
    path = _reply_path("explain", REQUEST)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    renders = _CountingExecute(monkeypatch)
    status, body = handlers.respond("explain", REQUEST)
    assert status == 200 and body == expected[2]
    assert renders.calls == 1
    assert path.read_bytes() == whole


def test_corrupt_entries_are_recomputed(cache_dir, tmp_path, monkeypatch):
    """A flipped bit or a truncation anywhere in a plan, baseline or reply
    entry is never loaded: the request recomputes what the entry held and
    answers with a fresh render's bytes."""
    fresh = {
        endpoint: _reference(monkeypatch, tmp_path / endpoint, endpoint, REQUEST, count=2)
        for endpoint in POST_ENDPOINTS
    }
    handlers.respond("plan", REQUEST)
    handlers.respond("simulate", REQUEST)
    paths = {
        "plan": _entry_path(json.loads(fresh["plan"][0])["result"]["cache"]["key"]),
        "baseline": _entry_path(json.loads(fresh["simulate"][0])["result"]["cache"]["key"]),
        "reply": _reply_path("plan", REQUEST),
    }
    pristine = {target: path.read_bytes() for target, path in paths.items()}
    # Each example starts from these three entries alone, so each target is
    # read by one request: a corrupt plan entry is replanned under /explain,
    # which has no reply entry to answer from.
    requests = {
        "plan": ("explain", fresh["explain"][0]),
        "baseline": ("simulate", fresh["simulate"][0]),
        "reply": ("plan", fresh["plan"][1]),
    }
    renders = _CountingExecute(monkeypatch)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        target=st.sampled_from(sorted(paths)),
        flip=st.booleans(),
        where=st.floats(0, 1, exclude_max=True),
    )
    def check(target, flip, where):
        cache.clear()
        for name, path in paths.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pristine[name])
        whole = pristine[target]
        if flip:
            bit = int(where * len(whole) * 8)
            corrupt = bytearray(whole)
            corrupt[bit // 8] ^= 1 << (bit % 8)
        else:
            corrupt = whole[: int(where * len(whole))]
        paths[target].write_bytes(bytes(corrupt))
        endpoint, expected = requests[target]
        calls = renders.calls
        assert handlers.respond(endpoint, REQUEST) == (200, expected)
        assert renders.calls == calls + 1
        if target == "reply":
            assert paths[target].read_bytes() == whole

    check()


def test_entries_without_the_header_are_recomputed(cache_dir):
    key = "ab" + "0" * 62
    path = _entry_path(key)
    for old in (b"repro-raw 3\nabc", pickle.dumps({"plan": 1})):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(old)
        assert cache.lookup(key) == (False, None)
        assert not path.exists()
    cache.store(key, b"abc")
    assert cache.lookup(key) == (True, b"abc")


def test_no_cache_writes_no_reply(cache_dir, monkeypatch):
    monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
    bodies = [handlers.respond("plan", REQUEST)[1] for _ in range(3)]
    assert [_hit(body) for body in bodies] == [False, False, False]
    assert not cache_dir.exists() or cache.entry_count() == 0


def test_reply_entries_are_evicted_in_lru_order(cache_dir, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, "1")
    recency: list[str] = []  # reply keys, least recently used first

    def use(glb_kb):
        params = {"model": "MobileNet", "glb_kb": glb_kb}
        handlers.respond("explain", params)
        key = handlers.reply_key("explain", params)
        if _entry_path(key).is_file():
            if key in recency:
                recency.remove(key)
            recency.append(key)
        return key

    def alive():
        return [key for key in recency if _entry_path(key).is_file()]

    evictions = cache.counters()["evictions"]
    first = [use(16), use(16)][1]
    second = [use(24), use(24)][1]
    use(16)  # a reply hit: the first reply is now more recent than the second
    assert recency == [second, first]
    outlived = None
    for glb_kb in range(32, 32 + 8 * 20, 8):
        use(glb_kb)
        use(glb_kb)
        survivors = alive()
        # Survivors are always the most recently used replies.
        assert survivors == recency[len(recency) - len(survivors):]
        if second not in survivors and outlived is None:
            outlived = first in survivors
        if first not in survivors:
            break
    assert cache.counters()["evictions"] > evictions
    assert outlived is True
    assert cache.total_bytes() <= cache.cache_max_bytes()


def test_code_digest_change_renders_fresh(cache_dir, monkeypatch):
    bodies = [handlers.respond("simulate", REQUEST)[1] for _ in range(2)]
    monkeypatch.setattr(handlers, "code_digest", lambda: "0" * 64)
    renders = _CountingExecute(monkeypatch)
    assert handlers.respond("simulate", REQUEST)[1] == bodies[1]
    assert renders.calls == 1
    assert handlers.respond("simulate", REQUEST)[1] == bodies[1]
    assert renders.calls == 1


def test_warm_daemon_repeat_hit_unpickles_nothing(cache_dir, monkeypatch):
    server = ReproServer("127.0.0.1", 0, jobs=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    loads = []

    def post(endpoint, params):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/{endpoint}",
            data=json.dumps(params).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read()

    def counting(real):
        def wrapper(*args, **kwargs):
            loads.append(real)
            return real(*args, **kwargs)

        return wrapper

    try:
        bodies = [post("explain", REQUEST) for _ in range(3)]
        monkeypatch.setattr(pickle, "load", counting(pickle.load))
        monkeypatch.setattr(pickle, "loads", counting(pickle.loads))
        assert post("explain", REQUEST) == bodies[2]
        assert loads == []
        # The counter does see a plan entry being read.
        post("plan", REQUEST)
        assert loads
    finally:
        server.shutdown()
        thread.join()
        server.close()


def test_pool_returns_the_in_thread_bytes(tmp_path, monkeypatch):
    def bodies(jobs):
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / f"jobs{jobs}"))
        server = ReproServer("127.0.0.1", 0, jobs=jobs)
        lookups = cache.counters()
        try:
            replies = [
                server.dispatch(endpoint, REQUEST)
                for endpoint in POST_ENDPOINTS
                for _ in range(3)
            ] + [server.dispatch("plan", {"model": "SkyNet"})]
        finally:
            server.close()
        # Pool workers count their lookups in their own processes.
        assert (cache.counters() == lookups) == (jobs > 0)
        return replies

    in_thread = bodies(0)
    assert bodies(2) == in_thread
    assert in_thread[-1][0] == 404


# -- The accept loop's reply index ------------------------------------------


@pytest.fixture
def daemon(cache_dir):
    """A running in-process daemon with its own cache directory."""
    server = ReproServer("127.0.0.1", 0, jobs=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.close()


def _send(server, endpoint, body):
    """POST raw ``body`` bytes; returns ``(status, response body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        connection.request("POST", f"/{endpoint}", body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class _CountingReplyKey:
    """Wraps ``handlers.reply_key`` and counts key derivations."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._reply_key = handlers.reply_key
        monkeypatch.setattr(handlers, "reply_key", self)

    def __call__(self, endpoint, params):
        self.calls += 1
        return self._reply_key(endpoint, params)


def test_a_repeated_body_derives_its_reply_key_once(daemon, tmp_path, monkeypatch):
    expected = _reference(monkeypatch, tmp_path, "plan", REQUEST)
    derived = _CountingReplyKey(monkeypatch)
    body = json.dumps(REQUEST).encode()
    served = [_send(daemon, "plan", body) for _ in range(3)]
    assert served == [(200, reply) for reply in expected]
    assert derived.calls == 1


def test_equivalent_bodies_share_one_reply_entry(daemon, tmp_path, monkeypatch):
    expected = _reference(monkeypatch, tmp_path, "explain", REQUEST)
    renders = _CountingExecute(monkeypatch)
    bodies = (
        b'{"model":"MobileNet","glb_kb":64}',
        b'{ "glb_kb" : 64,\n  "model" : "MobileNet" }',
        b'{"model": "mobilenet", "glb_kb": 64}',
    )
    assert [_send(daemon, "explain", body) for body in bodies] == [
        (200, reply) for reply in expected
    ]
    assert renders.calls == 1
    assert len(set(daemon._index.values())) == 1


def test_bad_bodies_are_answered_alike_every_time(daemon, monkeypatch):
    not_json = b"{not json"
    try:
        json.loads(not_json)
    except ValueError as exc:
        reason = f"request body is not JSON: {exc}"
    rejected = canonical_json(error_response("plan", "invalid-json", reason))
    invalid = [{"model": "SkyNet"}, {**REQUEST, "glb_kb": 0}, {**REQUEST, "scheme": "hom(px)"}]
    expected = [(400, rejected)] + [
        (status, canonical_json(envelope))
        for status, envelope in (handlers.execute("plan", params) for params in invalid)
    ]
    assert [status for status, _ in expected] == [400, 404, 400, 400]
    bodies = [not_json] + [json.dumps(params).encode() for params in invalid]
    for _ in range(3):
        assert [_send(daemon, "plan", body) for body in bodies] == expected
    assert ("plan", not_json) not in daemon._index
    assert [daemon._index["plan", body] for body in bodies[1:]] == [None, None, None]


@pytest.mark.parametrize("damage", ["delete", "flip"])
def test_an_index_hit_without_its_reply_renders_once(damage, daemon, tmp_path, monkeypatch):
    expected = _reference(monkeypatch, tmp_path, "simulate", REQUEST)
    body = json.dumps(REQUEST).encode()
    assert [_send(daemon, "simulate", body) for _ in range(2)] == [
        (200, reply) for reply in expected[:2]
    ]
    path = _reply_path("simulate", REQUEST)
    whole = path.read_bytes()
    if damage == "delete":
        path.unlink()
    else:
        corrupt = bytearray(whole)
        corrupt[len(corrupt) // 2] ^= 1
        path.write_bytes(bytes(corrupt))
    renders = _CountingExecute(monkeypatch)
    derived = _CountingReplyKey(monkeypatch)
    assert _send(daemon, "simulate", body) == (200, expected[2])
    assert (renders.calls, derived.calls) == (1, 0)
    assert path.read_bytes() == whole
    assert _send(daemon, "simulate", body) == (200, expected[2])
    assert renders.calls == 1


def test_the_index_is_bounded(daemon, tmp_path, monkeypatch):
    monkeypatch.setattr(ReproServer, "index_entries", 2)
    bodies = [json.dumps({"model": "MobileNet", "glb_kb": kb}).encode() for kb in (16, 24, 32)]
    for count, body in enumerate(bodies, 1):
        _send(daemon, "simulate", body)
        assert len(daemon._index) == (count - 1) % 2 + 1
    assert list(daemon._index) == [("simulate", bodies[2])]
    expected = _reference(monkeypatch, tmp_path, "simulate", REQUEST, count=2)
    derived = _CountingReplyKey(monkeypatch)
    padded = json.dumps(REQUEST).encode() + b" " * ReproServer.index_body_bytes
    assert [_send(daemon, "simulate", padded) for _ in range(2)] == [
        (200, reply) for reply in expected
    ]
    assert derived.calls == 2
    assert ("simulate", padded) not in daemon._index


def test_serve_request_spans_say_whether_the_key_was_indexed(daemon):
    tracer = enable_tracing()
    try:
        body = json.dumps(REQUEST).encode()
        for _ in range(3):
            _send(daemon, "plan", body)
        spans = [span.attr_dict() for span in tracer.drain() if span.name == "serve_request"]
    finally:
        disable_tracing()
    assert [span["indexed"] for span in spans] == [False, True, True]
    assert [span["status"] for span in spans] == ["queued", 200, 200]
