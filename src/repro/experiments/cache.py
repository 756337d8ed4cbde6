"""Persistent, content-addressed plan/evaluation cache.

The experiment suite replays the same (model × GLB size × objective)
analyses for every figure and table.  The in-process memo in
:mod:`repro.experiments.common`, keyed on this module's keys, dedupes
them within one run; this content-addressed on-disk cache outlives the
process and is shared by all of them (the engine's worker pool and the
``repro serve`` daemon included).

Keys
----
A cache key is the SHA-256 of a canonical JSON payload containing

* the cache schema version (:data:`CACHE_SCHEMA_VERSION` — bump it when a
  change anywhere in the planning pipeline may alter results),
* the entry kind (``"het"``, ``"hom"``, ``"baseline"``, …),
* the model digest — name **and** every layer's full hyperparameter tuple,
  so two models that merely share a name never collide,
* every :class:`~repro.arch.AcceleratorSpec` field (``data_width_bits``
  included) and, when present, every :class:`~repro.dram.DramSpec` field,
* the planning flags (objective, prefetch, inter-layer mode, …).

Values are stored with :mod:`pickle`, which round-trips the frozen plan
dataclasses bit-identically (floats included), so cached results render
exactly like freshly computed ones.  A ``bytes`` value (the serve
daemon's stored reply bodies) is written verbatim instead, so reading it
back is one file read and no unpickling.  Both kinds sit behind one
header: a magic naming the kind, and the CRC32 and length of the bytes
that follow.  An entry whose header does not match its bytes (a flipped
bit, a truncated write, an entry from before the header) is deleted and
recomputed, never loaded.

Environment
-----------
``REPRO_CACHE_DIR``
    Overrides the cache directory (default
    ``$XDG_CACHE_HOME/repro/plans-v<schema>`` or
    ``~/.cache/repro/plans-v<schema>``).
``REPRO_NO_CACHE``
    Any non-empty value disables the on-disk cache entirely (every lookup
    is a miss and nothing is written).  Both variables are inherited by
    the engine's worker processes.
``REPRO_CACHE_MAX_MB``
    Size cap in MiB.  When set, every store evicts least-recently-used
    entries past the cap (never the entry just written).  Unset means
    unbounded, the historical behavior.

Eviction / recency
------------------
An entry file's mtime is its recency: a store stamps the file before
it lands, and a hit restamps it with one ``os.utime``.  Both stamps read
``time.time_ns()``; the kernel's own write and ``utime`` stamps come
from a coarse clock tick, within which many stamps would tie.  Every
process shares the stamps, so a hit in a pool worker protects the entry
from an eviction in another process, and a hit creates, appends to and
renames nothing.  :func:`prune` scans the directory once, sorts by
``(mtime, key)`` — so exact ties order deterministically by key — and
unlinks oldest-first under an exclusive ``flock`` on
:data:`LOCK_NAME`, so concurrent prunes serialize.  A
reader that loses its entry to an eviction sees an ordinary miss: the
worst case is one recomputation.  ``repro cache stats|clear|prune`` is
the CLI surface.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import tempfile
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

from ..arch.spec import AcceleratorSpec
from ..arch.units import mib
from ..nn.model import Model
from ..obs import Snapshot, metrics_registry

try:  # POSIX-only; without flock, concurrent prunes simply overlap.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

T = TypeVar("T")

#: Bump when planner/estimator changes may alter cached results.
#: v2: ExecutionPlan gained the ``audit`` decision-trail field (pickle
#: shape change), so v1 entries must never be loaded into v2 code.
CACHE_SCHEMA_VERSION = 2

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable disabling the persistent cache when non-empty.
ENV_NO_CACHE = "REPRO_NO_CACHE"

#: Environment variable capping the cache size in MiB (LRU eviction).
ENV_CACHE_MAX_MB = "REPRO_CACHE_MAX_MB"

#: Lock file (``flock`` target) inside the cache directory; held by
#: :func:`prune` for its whole pass.
LOCK_NAME = "index.lock"

_SENTINEL = object()

#: Every entry's header: a magic naming the kind (:data:`_RAW`, a
#: ``bytes`` value verbatim, or :data:`_PICKLE`), then the CRC32 and the
#: length of the payload that follows it.  The two magics differ in four
#: bits, so no single flipped bit turns one kind into the other.
_HEADER = struct.Struct("<8sIQ")
_RAW = b"repro-rw"
_PICKLE = b"repro-pk"


#: The cache events, each counted by the ``plan_cache_<event>_count``
#: metric.  These are the only cache counters: ``/stats``, ``repro cache
#: stats`` and the engine summary all read them through :func:`counters`.
_EVENTS = ("hits", "misses", "stores", "evictions")


def counters(snapshot: Snapshot | None = None) -> dict[str, int]:
    """Cache event counts from a metrics snapshot or delta.

    Defaults to this process's registry.  Workers count in their own
    registries, so a pool's counts arrive in the deltas they return.
    """
    if snapshot is None:
        snapshot = metrics_registry().snapshot()
    values = snapshot.get("counters", {})
    counts: dict[str, int] = {}
    for event in _EVENTS:
        value = values.get(f"plan_cache_{event}_count", 0.0)
        assert isinstance(value, float)
        counts[event] = int(value)
    return counts


def cache_enabled() -> bool:
    """Whether the persistent cache is active (``REPRO_NO_CACHE`` unset)."""
    return not os.environ.get(ENV_NO_CACHE)  # repro: noqa[R011] -- documented cache kill-switch, affects speed only; never enters keys or results


def cache_dir() -> Path:
    """The active cache directory (not necessarily existing yet)."""
    return Path(_cache_root())


def _cache_root() -> str:
    """:func:`cache_dir` as a string, read from the environment on every call."""
    override = os.environ.get(ENV_CACHE_DIR)  # repro: noqa[R011] -- documented cache location knob, affects placement only; never enters keys or results
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")  # repro: noqa[R011] -- XDG convention for cache placement; never enters keys or results
    return os.path.join(base, "repro", f"plans-v{CACHE_SCHEMA_VERSION}")


def cache_max_bytes() -> int | None:
    """The configured size cap in bytes, or ``None`` for unbounded.

    Read from ``REPRO_CACHE_MAX_MB``; non-numeric or non-positive values
    are treated as unset.  Affects only retention (what gets recomputed),
    never the bytes of any result.
    """
    raw = os.environ.get(ENV_CACHE_MAX_MB)  # repro: noqa[R011] -- documented retention knob, affects eviction only; never enters keys or results
    if not raw:
        return None
    try:
        max_mb = int(raw)
    except ValueError:
        return None
    return mib(max_mb) if max_mb > 0 else None


# ----------------------------------------------------------------------
# Key construction
# ----------------------------------------------------------------------


#: ``id(model)`` -> ``(model, digest)``.  Holding the model keeps its id
#: from being reused while the entry lives; the table is cleared
#: wholesale above :data:`_DIGESTS_MAX`, like the interned layer shapes.
_DIGESTS: dict[int, tuple[Model, str]] = {}
_DIGESTS_MAX = 64
_DIGESTS_LOCK = threading.Lock()


def model_digest(model: Model) -> str:
    """Digest of a model's identity: name + every layer's hyperparameters.

    Memoized per model object (models are immutable), so a daemon that
    answers many requests for one zoo model hashes its layers once.
    """
    memo = _DIGESTS.get(id(model))
    if memo is None:
        memo = (model, _model_digest(model))
        with _DIGESTS_LOCK:
            if len(_DIGESTS) >= _DIGESTS_MAX:
                _DIGESTS.clear()
            _DIGESTS[id(model)] = memo
    return memo[1]


def _model_digest(model: Model) -> str:
    payload = [model.name]
    for layer in model.layers:
        payload.append(
            [
                layer.name,
                layer.kind.value,
                layer.in_h,
                layer.in_w,
                layer.in_c,
                layer.f_h,
                layer.f_w,
                layer.num_filters,
                layer.stride,
                layer.padding,
            ]
        )
    payload.append(sorted(model.sequential_pairs))
    payload.append(model.explicit_pairs)
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def spec_payload(spec: AcceleratorSpec) -> dict[str, Any]:
    """Every AcceleratorSpec field (DramSpec expanded field by field).

    ``data_width_bits`` is always part of the payload — two specs differing
    only in data width must never share a cache entry.
    """
    payload: dict[str, Any] = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name == "dram":
            value = (
                None
                if value is None
                else {df.name: getattr(value, df.name) for df in fields(value)}
            )
        payload[f.name] = value
    return payload


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def make_key(kind: str, **parts: Any) -> str:
    """Content-addressed key for one cache entry."""
    body = {"schema": CACHE_SCHEMA_VERSION, "kind": kind, **parts}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


def plan_cache_key(
    scheme: str,
    model: Model,
    spec: AcceleratorSpec,
    objective: Any,
    *,
    allow_prefetch: bool = True,
    interlayer: bool = False,
    interlayer_mode: str = "opportunistic",
) -> str:
    """Key layout for execution plans.

    The experiment suite, the ``repro serve`` daemon and library users
    all plan through :meth:`repro.manager.MemoryManager.plan_cached`,
    which keys on it, so identical requests hit the same entries.
    """
    objective_value = getattr(objective, "value", objective)
    return make_key(
        scheme,
        model=model_digest(model),
        spec=spec_payload(spec),
        objective=objective_value,
        allow_prefetch=allow_prefetch,
        interlayer=interlayer,
        interlayer_mode=interlayer_mode if interlayer else "-",
    )


def baseline_cache_key(model: Model, spec: AcceleratorSpec) -> str:
    """Key layout for the three fixed-partition baseline runs."""
    return make_key("baseline", model=model_digest(model), spec=spec_payload(spec))


# ----------------------------------------------------------------------
# Storage
# ----------------------------------------------------------------------


def _entry_path(key: str) -> str:
    return os.path.join(_cache_root(), key[:2], f"{key}.pkl")


def _stamp(path: str) -> None:
    """Set ``path``'s mtime, its recency, to now at nanosecond resolution."""
    now_ns = time.time_ns()
    os.utime(path, ns=(now_ns, now_ns))


def _load(path: str) -> Any:
    """The value stored at entry ``path``, or ``_SENTINEL`` on a miss.

    Corrupt, truncated or unreadable entries, and entries whose header
    does not match their payload, are deleted and counted as misses
    before anything is unpickled, so a crashed writer or a flipped bit
    can never poison later runs.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        magic, crc, size = _HEADER.unpack_from(data)
        payload = data[_HEADER.size:]
        if magic not in (_RAW, _PICKLE) or (size, crc) != (len(payload), zlib.crc32(payload)):
            raise ValueError("entry header does not match its payload")
        return payload if magic == _RAW else pickle.loads(payload)
    except FileNotFoundError:
        return _SENTINEL
    except Exception:
        try:
            os.unlink(path)
        except OSError:
            pass
        return _SENTINEL


def store(key: str, value: Any) -> None:
    """Atomically persist ``value`` under ``key`` (no-op when disabled).

    ``bytes`` values are written verbatim, everything else is pickled,
    each behind a :data:`_HEADER`.  The write lands via ``mkstemp`` +
    ``os.replace`` so readers only ever see complete entries, stamped
    with the write time as their recency; when ``REPRO_CACHE_MAX_MB``
    caps the cache, least-recently-used entries beyond the cap are
    evicted (never the entry just written).
    """
    if not cache_enabled():
        return
    path = _entry_path(key)
    parent = os.path.dirname(path)
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            if isinstance(value, bytes):
                magic, payload = _RAW, value
            else:
                magic, payload = _PICKLE, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(_HEADER.pack(magic, zlib.crc32(payload), len(payload)))
            handle.write(payload)
        _stamp(tmp)
        os.replace(tmp, path)
        metrics_registry().counter("plan_cache_stores_count").add(1)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return
    cap_bytes = cache_max_bytes()
    if cap_bytes is not None:
        prune(cap_bytes, keep=frozenset((key,)))


def lookup(key: str) -> tuple[bool, Any]:
    """Cache probe with counters: ``(hit, value)`` (value=None on miss).

    A hit restamps the entry's mtime, its recency in every process.
    This is the primitive :func:`fetch` and the serve reply path share,
    so both agree on what counts as a hit.
    """
    if cache_enabled():
        path = _entry_path(key)
        cached = _load(path)
        if cached is not _SENTINEL:
            metrics_registry().counter("plan_cache_hits_count").add(1)
            try:
                _stamp(path)
            except OSError:
                pass  # evicted since the load: the next prune just skips it
            return True, cached
    metrics_registry().counter("plan_cache_misses_count").add(1)
    return False, None


def fetch(key: str, compute: Callable[[], T]) -> tuple[T, bool]:
    """``(value, hit)`` for ``key``, computed and stored on a miss; calls
    :func:`lookup` and :func:`store` as module globals, so rebinding either covers it."""
    hit, cached = lookup(key)
    if hit:
        return cached, True
    value = compute()
    store(key, value)
    return value, False


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one :func:`prune` pass."""

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


def entries() -> list[tuple[str, int]]:
    """``(key, size_bytes)`` of every entry on disk, least recently used first.

    One scan: ordered by ``(mtime, key)``, so exact ties still order
    deterministically.
    """
    root = cache_dir()
    if not root.is_dir():
        return []
    scanned: list[tuple[int, str, int]] = []
    for path in root.rglob("*.pkl"):
        try:
            stat = path.stat()
        except OSError:
            continue  # raced an eviction/clear
        scanned.append((stat.st_mtime_ns, path.stem, stat.st_size))
    scanned.sort()
    return [(key, size) for _, key, size in scanned]


@contextmanager
def _flock() -> Iterator[None]:
    """Hold the exclusive lock on :data:`LOCK_NAME` (released on close)."""
    root = cache_dir()
    root.mkdir(parents=True, exist_ok=True)
    with (root / LOCK_NAME).open("a") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield


def prune(max_bytes: int, *, keep: frozenset[str] = frozenset()) -> PruneResult:
    """Evict least-recently-used entries until the cache fits ``max_bytes``.

    Holds the exclusive lock for the whole pass, so concurrent prunes
    serialize.  Keys in ``keep`` (the entry a store just wrote) are never
    evicted.
    """
    with _flock():
        scanned = entries()
        remaining_bytes = sum(size for _, size in scanned)
        victims: list[tuple[str, int]] = []
        for key, size in scanned:  # oldest first
            if remaining_bytes <= max_bytes:
                break
            if key not in keep:
                victims.append((key, size))
                remaining_bytes -= size
        for key, _ in victims:
            try:
                os.unlink(_entry_path(key))
            except OSError:
                pass
    if victims:
        metrics_registry().counter("plan_cache_evictions_count").add(len(victims))
    return PruneResult(
        evicted_count=len(victims),
        evicted_bytes=sum(size for _, size in victims),
        remaining_count=len(scanned) - len(victims),
        remaining_bytes=remaining_bytes,
    )


def clear() -> int:
    """Delete every file in the cache but the lock; returns the entry count.

    That covers orphaned temp files, which a writer killed between
    ``mkstemp`` and ``os.replace`` leaves behind, and any file an older
    cache layout left.  Deleting a live writer's temp file is safe: its
    ``os.replace`` fails, :func:`store` swallows the error, and the value
    is recomputed later.
    """
    root = cache_dir()
    removed = 0
    if not root.is_dir():
        return removed
    for path in root.rglob("*"):
        if path.name == LOCK_NAME or not path.is_file():
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed += path.suffix == ".pkl"
    return removed


def entry_count() -> int:
    """Number of entries currently on disk."""
    root = cache_dir()
    return sum(1 for _ in root.rglob("*.pkl")) if root.is_dir() else 0


def total_bytes() -> int:
    """Total size of all cache entries on disk."""
    return sum(size for _, size in entries())
