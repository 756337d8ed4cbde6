"""Reply entries: the daemon's stored response bodies (``handlers.respond``).

Every body ``respond`` returns must equal ``canonical_json`` of a fresh
``execute`` envelope for the same cache state, whether it was rendered
or read back from a reply entry.
"""

from __future__ import annotations

import json
import pickle
import threading
import urllib.request

import pytest

from repro.experiments import cache
from repro.serve import handlers
from repro.serve.protocol import POST_ENDPOINTS, canonical_json
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
    handlers.respond("plan", REQUEST)
    renders = _CountingExecute(monkeypatch)
    handlers.respond("plan", REQUEST)
    assert renders.calls == 0


def test_misses_and_errors_store_no_reply(cache_dir):
    handlers.respond("simulate", REQUEST)
    assert not _reply_path("simulate", REQUEST).exists()
    unknown_family = {**REQUEST, "scheme": "hom(px)"}
    for _ in range(2):
        status, _ = handlers.respond("plan", unknown_family)
        assert status == 400
    assert handlers.reply_key("plan", unknown_family) is None
    for _ in range(2):
        status, _ = handlers.respond("plan", {"model": "SkyNet"})
        assert status == 404
    assert handlers.reply_key("plan", {"model": "SkyNet"}) is None


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
