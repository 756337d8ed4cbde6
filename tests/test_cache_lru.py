"""LRU plan-cache retention: mtime recency, eviction, concurrency, CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

import pytest

from repro.cli import main
from repro.experiments import cache
from repro.obs import metrics_registry

AA, BB, CC = (stem + "0" * 62 for stem in ("aa", "bb", "cc"))

#: Audit events that modify the filesystem (``os.replace`` raises
#: ``os.rename``), and the ``open`` flags that make an open a write.
_WRITE_EVENTS = frozenset(
    ("os.rename", "os.mkdir", "os.remove", "os.rmdir", "os.truncate",
     "os.link", "os.symlink", "os.chmod", "os.utime")
)
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC

#: While non-empty, filesystem writes are appended to the last list.
_RECORDING: list[list[tuple[str, str]]] = []


def _audit(event: str, args: tuple) -> None:
    if _RECORDING and (
        event in _WRITE_EVENTS or (event == "open" and args[2] & _WRITE_FLAGS)
    ):
        _RECORDING[-1].append((event, str(args[0])))


sys.addaudithook(_audit)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A pristine cache directory for one test."""
    target = tmp_path / "plans"
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(target))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    monkeypatch.delenv(cache.ENV_CACHE_MAX_MB, raising=False)
    metrics_registry().reset()
    return target


def _store_blob(key: str, size: int) -> None:
    cache.store(key, b"x" * size)


def _stamp(key: str, seconds: int) -> None:
    """Set an entry's recency explicitly: back-to-back writes share a tick."""
    ns = seconds * 1_000_000_000
    os.utime(cache._entry_path(key), ns=(ns, ns))


def _hit(key: str) -> None:
    """Child-process body: one cache hit, or a non-zero exit."""
    if not cache.lookup(key)[0]:
        raise SystemExit(1)


class TestRecency:
    def test_mtime_order_is_recency(self, cache_dir):
        _store_blob(AA, 100)
        _store_blob(BB, 100)
        _stamp(AA, 1)
        _stamp(BB, 2)
        # a hit restamps the first key, making it most recent
        hit, _ = cache.lookup(AA)
        assert hit
        assert [key[:2] for key, _ in cache.entries()] == ["bb", "aa"]

    def test_equal_stamps_order_by_key(self, cache_dir):
        _store_blob(BB, 100)
        _store_blob(AA, 100)
        _stamp(AA, 1)
        _stamp(BB, 1)
        assert [key[:2] for key, _ in cache.entries()] == ["aa", "bb"]

    def test_back_to_back_hits_order_by_use(self, cache_dir):
        keys = [f"{index:02x}" + "0" * 62 for index in range(20)]
        for key in keys:
            _store_blob(key, 100)
        # hits in one tight loop share one kernel clock tick: only a
        # full-resolution stamp keeps them apart, or key order wins
        used = keys[::-1]
        for key in used:
            assert cache.lookup(key)[0]
        assert [key for key, _ in cache.entries()] == used

    def test_entries_require_disk_backing(self, cache_dir):
        _store_blob(AA, 100)
        _store_blob(BB, 100)
        os.unlink(cache._entry_path(AA))
        assert [key[:2] for key, _ in cache.entries()] == ["bb"]

    def test_prune_evicts_lru_first(self, cache_dir):
        for second, key in enumerate((AA, BB, CC), start=1):
            _store_blob(key, 1000)
            _stamp(key, second)
        hit, _ = cache.lookup(AA)  # aa becomes most recent
        assert hit
        result = cache.prune(2 * 1024)
        assert result.evicted_count == 1
        survivors = {key[:2] for key, _ in cache.entries()}
        assert survivors == {"cc", "aa"}  # bb was least recently used

    def test_prune_respects_keep_set(self, cache_dir):
        for key in (AA, BB):
            _store_blob(key, 1000)
        result = cache.prune(0, keep=frozenset((AA,)))
        assert result.evicted_count == 1
        assert [key for key, _ in cache.entries()] == [AA]

    def test_hit_writes_only_the_entry_utime(self, cache_dir):
        _store_blob(AA, 100)
        _RECORDING.append([])
        try:
            assert cache.lookup(AA)[0]
        finally:
            writes = _RECORDING.pop()
        # no mkdir, no append, no rename: one restamp of the entry
        assert writes == [("os.utime", str(cache._entry_path(AA)))]

    def test_hit_in_forked_child_refreshes_recency(self, cache_dir):
        _store_blob(AA, 1000)
        _store_blob(BB, 1000)
        _stamp(AA, 1)
        _stamp(BB, 2)
        child = multiprocessing.get_context("fork").Process(target=_hit, args=(AA,))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        # the child's hit made aa the most recent entry in this process too
        assert cache.prune(1024).evicted_count == 1
        assert [key for key, _ in cache.entries()] == [AA]


class TestCapEnforcement:
    def test_store_evicts_past_cap(self, cache_dir, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, "1")
        blob = 400 * 1024
        for stem in ("aa", "bb", "cc"):
            _store_blob(stem + "0" * 62, blob)
        # three ~0.4 MiB entries under a 1 MiB cap: the oldest must go
        assert cache.entry_count() == 2
        assert cache.total_bytes() <= 1024 * 1024
        assert cache.counters()["evictions"] >= 1
        survivors = {key[:2] for key, _ in cache.entries()}
        assert "cc" in survivors  # the entry just stored is never evicted

    def test_unset_cap_means_unbounded(self, cache_dir):
        assert cache.cache_max_bytes() is None
        for stem in ("aa", "bb", "cc", "dd"):
            _store_blob(stem + "0" * 62, 100_000)
        assert cache.entry_count() == 4

    def test_bogus_cap_values_ignored(self, cache_dir, monkeypatch):
        for bogus in ("nope", "-3", "0", ""):
            monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, bogus)
            assert cache.cache_max_bytes() is None


def _hammer_worker(args: tuple[int, int]) -> dict[str, str]:
    """Fetch a fixed key set in a churned order; return key → sha of value.

    Runs in a separate process; the cache directory and size cap come in
    via the (inherited) environment, exactly like real pool workers.
    """
    import hashlib

    worker_id, rounds = args
    metrics_registry().reset()
    digests: dict[str, str] = {}
    for round_no in range(rounds):
        for i in range(6):
            # deterministic per-worker interleaving, no RNG
            slot = (i + worker_id + round_no) % 6
            key = cache.make_key("hammer", slot=slot)
            value = cache.fetch(key, lambda: {"slot": slot, "blob": "x" * 300_000})
            digests[key] = hashlib.sha256(
                json.dumps(value, sort_keys=True).encode()
            ).hexdigest()
    return digests


class TestConcurrentHammer:
    def test_multiprocess_fetch_is_bit_identical(self, cache_dir, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, "1")
        expected = {
            cache.make_key("hammer", slot=slot): slot for slot in range(6)
        }
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            results = pool.map(_hammer_worker, [(w, 5) for w in range(4)])
        # every process saw the same bytes for every key, every round
        merged: dict[str, set[str]] = {}
        for digests in results:
            for key, digest in digests.items():
                merged.setdefault(key, set()).add(digest)
        assert set(merged) == set(expected)
        assert all(len(d) == 1 for d in merged.values())
        # every listed entry survived the stampede and loads the
        # expected content
        for key, _ in cache.entries():
            if key in expected:
                hit, value = cache.lookup(key)
                assert hit and value["slot"] == expected[key]


class TestCacheCli:
    def test_stats(self, cache_dir, capsys):
        _store_blob("aa" + "0" * 62, 1000)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(cache_dir) in out

    def test_prune(self, cache_dir, capsys):
        for stem in ("aa", "bb", "cc"):
            _store_blob(stem + "0" * 62, 100_000)
        assert main(["cache", "prune", "--max-mb", "0"]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert cache.entry_count() == 0

    def test_prune_requires_max_mb(self, cache_dir, capsys):
        assert main(["cache", "prune"]) == 2
        assert "--max-mb is required" in capsys.readouterr().err

    def test_prune_rejects_negative_max_mb(self, cache_dir, capsys):
        _store_blob("aa" + "0" * 62, 1000)
        with pytest.raises(SystemExit) as exc:
            main(["cache", "prune", "--max-mb", "-5"])
        assert exc.value.code == 2
        assert "--max-mb: must be >= 0, got -5" in capsys.readouterr().err
        assert cache.entry_count() == 1

    @pytest.mark.parametrize("max_mb", ["0", "-3"])
    def test_serve_rejects_cache_max_mb_below_one(self, max_mb, capsys, monkeypatch):
        def boot(*args, **kwargs):
            raise AssertionError("the daemon must not boot")

        monkeypatch.setattr("repro.serve.server.run_server", boot)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--cache-max-mb", max_mb])
        assert exc.value.code == 2
        assert f"--cache-max-mb: must be >= 1, got {max_mb}" in capsys.readouterr().err

    def test_clear(self, cache_dir, capsys):
        _store_blob(AA, 1000)
        assert main(["cache", "clear"]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        assert cache.entry_count() == 0

    def test_clear_removes_temp_files_of_killed_writers(self, cache_dir, capsys):
        _store_blob(AA, 1000)
        # what a writer killed between mkstemp and os.replace leaves
        (cache_dir / "aa" / "tmpdeadbeef.tmp").write_bytes(b"x" * 5000)
        assert main(["cache", "clear"]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        left = {p.name for p in cache_dir.rglob("*") if p.suffix in (".pkl", ".tmp")}
        assert not left

    def test_clear_removes_every_file_but_the_lock(self, cache_dir, capsys):
        _store_blob(AA, 1000)
        # an older cache layout's recency journal and an unknown stray
        (cache_dir / "index.journal").write_bytes(b"x" * 5000)
        (cache_dir / "aa" / "stray").write_bytes(b"x")
        (cache_dir / cache.LOCK_NAME).touch()
        assert main(["cache", "clear"]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        left = [p.name for p in cache_dir.rglob("*") if p.is_file()]
        assert left == [cache.LOCK_NAME]


class TestPruneResult:
    def test_prune_result_payload_roundtrip(self, cache_dir):
        _store_blob(AA, 1000)
        result = cache.prune(0)
        payload = result.to_payload()
        assert payload["evicted_count"] == 1
        assert payload["remaining_count"] == 0
