"""LRU index + size-cap eviction for the shared content-addressed cache.

The persistent plan cache (:mod:`repro.experiments.cache`) is written by
many processes at once — experiment pool workers, daemon pool workers,
CLI invocations — so its recency index cannot be a single JSON document
that writers read-modify-write (two concurrent writers would drop each
other's updates).  Instead the index is an **append-only journal**:

* Every store and every hit appends one small JSON line with
  ``O_APPEND`` (atomic for writes far below ``PIPE_BUF``, so concurrent
  appends never interleave mid-line on POSIX).
* Recency is the *journal order itself* — later lines are more recent —
  so no clock and no cross-process sequence counter is needed, and the
  replayed order is identical in every reader.
* Readers replay the journal tolerantly: a torn or corrupt trailing
  line (crashed writer) is skipped, never fatal.

Eviction (:meth:`CacheIndex.prune`) takes an exclusive ``flock`` on a
sidecar lock file, replays the journal, reconciles it against the files
actually on disk (disk is the source of truth for existence and size),
deletes least-recently-used entries until the total size fits the cap,
and atomically rewrites a compacted journal.  Entries are removed with
``unlink`` only after the compacted journal is in place, and concurrent
readers treat a vanished entry file as an ordinary cache miss — so an
in-flight ``load``/``store`` can race an eviction without corruption:
the worst case is one recomputation.  Callers may also pass ``keep``
keys (entries they are actively using) which are never evicted.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

try:  # POSIX-only; the repo targets Linux but degrades gracefully.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Journal file name inside the cache directory.
JOURNAL_NAME = "index.journal"

#: Lock file name (flock target) inside the cache directory.
LOCK_NAME = "index.lock"


@dataclass(frozen=True)
class IndexEntry:
    """One cache entry as the index knows it."""

    key: str
    size_bytes: int
    #: Journal line number of the entry's most recent touch (-1 when the
    #: entry exists on disk but was never journaled — treated as oldest).
    seq: int


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one :meth:`CacheIndex.prune` pass."""

    evicted_count: int
    evicted_bytes: int
    remaining_count: int
    remaining_bytes: int

    def to_payload(self) -> dict[str, int]:
        """The result as a JSON-safe dict (CLI / bench output)."""
        return {
            "evicted_count": self.evicted_count,
            "evicted_bytes": self.evicted_bytes,
            "remaining_count": self.remaining_count,
            "remaining_bytes": self.remaining_bytes,
        }


class _Flock:
    """Exclusive advisory lock on a file (no-op where flock is missing)."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._handle: IO[str] | None = None

    def __enter__(self) -> "_Flock":
        self._path.parent.mkdir(parents=True, exist_ok=True)
        handle = self._path.open("a")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        self._handle = handle
        return self

    def __exit__(self, *exc_info: object) -> None:
        handle = self._handle
        self._handle = None
        if handle is not None:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()


class CacheIndex:
    """Append-only LRU journal for one cache directory.

    All methods are safe to call from many processes concurrently; only
    :meth:`prune` and :meth:`compact` take the exclusive lock.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    @property
    def journal_path(self) -> Path:
        """Location of the append-only journal file."""
        return self.root / JOURNAL_NAME

    @property
    def lock_path(self) -> Path:
        """Location of the flock sidecar file."""
        return self.root / LOCK_NAME

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def record(self, key: str, size_bytes: int) -> None:
        """Append one touch record (store or hit) for ``key``.

        A single ``O_APPEND`` write of one short line: atomic with
        respect to every other concurrent writer, never read-modify-
        write.  The directory is created only when the first open finds
        it missing, so a hit costs no ``mkdir``.  Failures are swallowed —
        the index is a performance structure, not a correctness one (disk
        remains authoritative).
        """
        line = json.dumps(
            {"key": key, "size_bytes": int(size_bytes)}, sort_keys=True
        )
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        try:
            try:
                fd = os.open(self.journal_path, flags, 0o644)
            except FileNotFoundError:
                self.root.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.journal_path, flags, 0o644)
            try:
                os.write(fd, (line + "\n").encode())
            finally:
                os.close(fd)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _replay(self) -> dict[str, IndexEntry]:
        """Replay the journal; last touch wins, corrupt lines skipped."""
        entries: dict[str, IndexEntry] = {}
        try:
            raw = self.journal_path.read_bytes()
        except OSError:
            return entries
        for seq, line in enumerate(raw.splitlines()):
            try:
                record = json.loads(line)
                key = record["key"]
                size_bytes = int(record["size_bytes"])
            except (ValueError, KeyError, TypeError):
                continue  # torn/corrupt line from a crashed writer
            if isinstance(key, str):
                entries[key] = IndexEntry(key=key, size_bytes=size_bytes, seq=seq)
        return entries

    def _disk_entries(self) -> dict[str, int]:
        """key → size for every entry file actually on disk."""
        sizes: dict[str, int] = {}
        if not self.root.is_dir():
            return sizes
        for path in self.root.rglob("*.pkl"):
            try:
                sizes[path.stem] = path.stat().st_size
            except OSError:
                continue  # raced an eviction/clear
        return sizes

    def entries(self) -> list[IndexEntry]:
        """Current entries, least- to most-recently used.

        Reconciled against disk: journal records without a backing file
        are dropped; on-disk files the journal never saw sort oldest
        (deterministically, by key) with authoritative disk sizes.
        """
        journal = self._replay()
        disk = self._disk_entries()
        merged: list[IndexEntry] = []
        for key in sorted(disk):
            recorded = journal.get(key)
            merged.append(
                IndexEntry(
                    key=key,
                    size_bytes=disk[key],
                    seq=recorded.seq if recorded is not None else -1,
                )
            )
        merged.sort(key=lambda e: (e.seq, e.key))
        return merged

    def total_bytes(self) -> int:
        """Total size of all entry files on disk."""
        return sum(self._disk_entries().values())

    def _entry_file(self, key: str) -> Path:
        # Mirrors repro.experiments.cache._entry_path fan-out layout.
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Eviction / maintenance
    # ------------------------------------------------------------------

    def _write_journal(self, survivors: list[IndexEntry]) -> None:
        """Atomically replace the journal with a compacted one."""
        self.root.mkdir(parents=True, exist_ok=True)
        lines = "".join(
            json.dumps({"key": e.key, "size_bytes": e.size_bytes}, sort_keys=True)
            + "\n"
            for e in survivors
        )
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".journal.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(lines)
            os.replace(tmp, self.journal_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def prune(
        self, max_bytes: int, *, keep: frozenset[str] = frozenset()
    ) -> PruneResult:
        """Evict least-recently-used entries until the total fits the cap.

        Holds the exclusive index lock for the whole pass, so concurrent
        prunes serialize.  Keys in ``keep`` (in-flight entries the caller
        is actively reading or just wrote) are never evicted.  The
        compacted journal is written *before* entry files are unlinked,
        so a crash mid-prune leaves extra files (reclaimed next pass),
        never a journal that references nothing.
        """
        with _Flock(self.lock_path):
            entries = self.entries()
            total_bytes = sum(e.size_bytes for e in entries)
            victims: list[IndexEntry] = []
            for entry in entries:  # oldest first
                if total_bytes <= max_bytes:
                    break
                if entry.key in keep:
                    continue
                victims.append(entry)
                total_bytes -= entry.size_bytes
            victim_keys = {v.key for v in victims}
            survivors = [e for e in entries if e.key not in victim_keys]
            self._write_journal(survivors)
            for victim in victims:
                try:
                    self._entry_file(victim.key).unlink()
                except OSError:
                    pass
            return PruneResult(
                evicted_count=len(victims),
                evicted_bytes=sum(v.size_bytes for v in victims),
                remaining_count=len(survivors),
                remaining_bytes=sum(e.size_bytes for e in survivors),
            )

    def compact(self) -> int:
        """Rewrite the journal to one line per live entry; returns count.

        Called on daemon shutdown (the "flush the cache index atomically"
        step) and after clears, so journals do not grow without bound.
        """
        with _Flock(self.lock_path):
            survivors = self.entries()
            self._write_journal(survivors)
            return len(survivors)

    def clear(self) -> None:
        """Drop the journal (after the entries themselves were deleted)."""
        with _Flock(self.lock_path):
            try:
                self.journal_path.unlink()
            except OSError:
                pass

    def iter_keys(self) -> Iterator[str]:
        """All keys on disk (unordered source: sorted for determinism)."""
        yield from sorted(self._disk_entries())
