"""LRU plan-cache retention: journal index, eviction, concurrency, CLI."""

from __future__ import annotations

import json
import multiprocessing
import pickle

import pytest

from repro.cli import main
from repro.experiments import cache
from repro.obs import metrics_registry
from repro.serve.cache_index import CacheIndex, IndexEntry


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


class TestCacheIndex:
    def test_journal_order_is_recency(self, cache_dir):
        _store_blob("aa" + "0" * 62, 100)
        _store_blob("bb" + "0" * 62, 100)
        # touching the first key again makes it most recent
        hit, _ = cache.lookup("aa" + "0" * 62)
        assert hit
        entries = cache.index().entries()
        assert [e.key[:2] for e in entries] == ["bb", "aa"]

    def test_corrupt_journal_lines_are_skipped(self, cache_dir):
        _store_blob("aa" + "0" * 62, 100)
        journal = cache.index().journal_path
        with journal.open("a") as handle:
            handle.write("{torn line\n")
            handle.write('{"nokey": 1}\n')
            handle.write('{"key": 42, "size_bytes": 1}\n')
        entries = cache.index().entries()
        assert [e.key[:2] for e in entries] == ["aa"]

    def test_unjournaled_disk_files_sort_oldest(self, cache_dir):
        _store_blob("bb" + "0" * 62, 100)
        # a file that predates the journal (or whose record was lost)
        orphan = cache_dir / "aa" / ("aa" + "0" * 62 + ".pkl")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(pickle.dumps(b"orphan"))
        entries = cache.index().entries()
        assert entries[0].key.startswith("aa")
        assert entries[0].seq == -1
        assert entries[1].key.startswith("bb")

    def test_journal_dropped_entries_require_disk_backing(self, cache_dir):
        _store_blob("aa" + "0" * 62, 100)
        _store_blob("bb" + "0" * 62, 100)
        # delete one entry file behind the index's back
        for path in cache_dir.rglob("aa*.pkl"):
            path.unlink()
        assert [e.key[:2] for e in cache.index().entries()] == ["bb"]

    def test_prune_evicts_lru_first(self, cache_dir):
        for stem in ("aa", "bb", "cc"):
            _store_blob(stem + "0" * 62, 1000)
        hit, _ = cache.lookup("aa" + "0" * 62)  # aa becomes most recent
        assert hit
        result = cache.index().prune(2 * 1024)
        assert result.evicted_count == 1
        survivors = {e.key[:2] for e in cache.index().entries()}
        assert survivors == {"cc", "aa"}  # bb was least recently used

    def test_prune_respects_keep_set(self, cache_dir):
        for stem in ("aa", "bb"):
            _store_blob(stem + "0" * 62, 1000)
        protected = "aa" + "0" * 62
        result = cache.index().prune(0, keep=frozenset((protected,)))
        assert result.evicted_count == 1
        assert [e.key for e in cache.index().entries()] == [protected]

    def test_prune_compacts_journal_before_unlink(self, cache_dir):
        for stem in ("aa", "bb", "cc"):
            _store_blob(stem + "0" * 62, 1000)
        cache.index().prune(1024)
        journal_keys = {
            json.loads(line)["key"][:2]
            for line in cache.index().journal_path.read_text().splitlines()
        }
        disk_keys = {p.stem[:2] for p in cache_dir.rglob("*.pkl")}
        assert journal_keys == disk_keys  # journal never references ghosts

    def test_compact_shrinks_journal(self, cache_dir):
        key = "aa" + "0" * 62
        _store_blob(key, 100)
        for _ in range(20):
            cache.lookup(key)
        index = cache.index()
        assert len(index.journal_path.read_text().splitlines()) > 10
        assert index.compact() == 1
        assert len(index.journal_path.read_text().splitlines()) == 1

    def test_record_creates_missing_directory(self, tmp_path):
        index = CacheIndex(tmp_path / "fresh" / "plans")
        index.record("aa" + "0" * 62, 7)
        assert [e.size_bytes for e in index._replay().values()] == [7]

    def test_hit_record_makes_no_directory(self, cache_dir, monkeypatch):
        key = "aa" + "0" * 62
        _store_blob(key, 100)

        def no_mkdir(*args, **kwargs):
            raise AssertionError("mkdir on a cache hit")

        monkeypatch.setattr(type(cache_dir), "mkdir", no_mkdir)
        assert cache.lookup(key)[0]
        assert len(cache.index().journal_path.read_text().splitlines()) == 2

    def test_entry_file_layout_matches_cache(self, cache_dir):
        key = "ab" + "0" * 62
        _store_blob(key, 10)
        index_path = CacheIndex(cache_dir)._entry_file(key)
        assert index_path.is_file()


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
        survivors = {e.key[:2] for e in cache.index().entries()}
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

    def test_clear_also_drops_journal(self, cache_dir):
        _store_blob("aa" + "0" * 62, 100)
        assert cache.index().journal_path.is_file()
        cache.clear()
        assert cache.entry_count() == 0
        assert not cache.index().journal_path.is_file()


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
        # the index survived the stampede: replay works, every entry is
        # backed by a real file, and the journal parses line by line
        index = cache.index()
        entries = index.entries()
        assert all(index._entry_file(e.key).is_file() for e in entries)
        for line in index.journal_path.read_text().splitlines():
            record = json.loads(line)
            assert isinstance(record["key"], str)
        # values on disk still round-trip to the expected content
        for entry in entries:
            if entry.key in expected:
                hit, value = cache.lookup(entry.key)
                assert hit and value["slot"] == expected[entry.key]


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
        _store_blob("aa" + "0" * 62, 1000)
        assert main(["cache", "clear"]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        assert cache.entry_count() == 0


class TestIndexEntryShape:
    def test_prune_result_payload_roundtrip(self, cache_dir):
        _store_blob("aa" + "0" * 62, 1000)
        result = cache.prune(0)
        payload = result.to_payload()
        assert payload["evicted_count"] == 1
        assert payload["remaining_count"] == 0

    def test_index_entry_fields(self):
        entry = IndexEntry(key="k", size_bytes=3, seq=7)
        assert (entry.key, entry.size_bytes, entry.seq) == ("k", 3, 7)
