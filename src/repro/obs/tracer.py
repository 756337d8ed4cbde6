"""Structured tracing: nested, attribute-carrying spans.

Design goals, in order:

* **Free when off.**  The default tracer is a :class:`NullTracer` whose
  ``start`` returns a shared stateless no-op span — no clock read, no
  allocation beyond the kwargs dict, no lock.
* **Safe when on.**  :class:`Tracer` is thread-safe (one lock around the
  record list, thread-local depth bookkeeping) and its
  :class:`SpanRecord` output is a picklable frozen dataclass, so worker
  processes can ship their spans back to the engine for merging.
* **Process-correct under fork.**  Worker processes of the experiment
  engine's pool inherit the parent's tracer state on Linux (fork start
  method).  :func:`configure_worker` — installed as the pool initializer
  — replaces it with a fresh tracer (or the null tracer) according to
  the ``REPRO_TRACE`` environment flag, so parent spans are never
  duplicated into worker snapshots.

Spans must be opened with ``with`` (enforced by lint rule R030)::

    with get_tracer().start("plan_layer", layer=layer.name) as span:
        ...
        span.set_attr("candidates_count", len(evaluations))
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Iterable

from . import clock

#: Environment flag enabling tracing in spawned worker processes.  Set by
#: :func:`enable_tracing`, read by :func:`configure_worker`.  Telemetry
#: only — it can never change a planning or simulation result.
ENV_TRACE = "REPRO_TRACE"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what happened, where, and for how long."""

    name: str
    start_ns: int
    end_ns: int
    pid: int
    tid: int
    depth: int
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration_ns(self) -> int:
        """Span duration in nanoseconds."""
        return self.end_ns - self.start_ns

    def attr_dict(self) -> dict[str, object]:
        """The span attributes as a plain dict."""
        return dict(self.attrs)


class AbstractSpan:
    """No-op span base; the shared instance backs :class:`NullTracer`."""

    __slots__ = ()

    def set_attr(self, key: str, value: object) -> None:
        """Attach an attribute to the span (no-op here)."""
        return None

    def __enter__(self) -> "AbstractSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


#: The one stateless span every :class:`NullTracer.start` call returns.
_NULL_SPAN = AbstractSpan()


class Span(AbstractSpan):
    """A live span; records itself into its tracer on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start_ns = 0
        self._depth = 0

    def set_attr(self, key: str, value: object) -> None:
        """Attach (or overwrite) an attribute on the span."""
        self._attrs[key] = value

    def __enter__(self) -> "Span":
        self._depth = self._tracer._enter_depth()
        self._start_ns = clock.monotonic_ns()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end_ns = clock.monotonic_ns()
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer._record(
            SpanRecord(
                name=self._name,
                start_ns=self._start_ns,
                end_ns=end_ns,
                pid=os.getpid(),  # repro: noqa[R010] -- span metadata for trace merging, never in results
                tid=threading.get_ident(),
                depth=self._depth,
                attrs=tuple(sorted(self._attrs.items())),
            )
        )
        self._tracer._exit_depth()


class NullTracer:
    """The default tracer: records nothing, costs (almost) nothing."""

    enabled: bool = False

    def start(self, name: str, /, **attrs: object) -> AbstractSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def drain(self) -> tuple[SpanRecord, ...]:
        """Remove and return collected spans (always empty here)."""
        return ()

    def ingest(self, records: Iterable[SpanRecord]) -> None:
        """Merge externally collected spans (dropped here)."""
        return None


class Tracer(NullTracer):
    """A recording tracer: collects :class:`SpanRecord` objects."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._local = threading.local()

    def start(self, name: str, /, **attrs: object) -> Span:
        """Create a span; open it with ``with`` (lint rule R030)."""
        return Span(self, name, dict(attrs))

    def drain(self) -> tuple[SpanRecord, ...]:
        """Remove and return every span recorded so far."""
        with self._lock:
            records = tuple(self._records)
            self._records.clear()
        return records

    def ingest(self, records: Iterable[SpanRecord]) -> None:
        """Merge spans collected elsewhere (e.g. by a worker process)."""
        with self._lock:
            self._records.extend(records)

    # Internal hooks used by Span ---------------------------------------

    def _enter_depth(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _exit_depth(self) -> None:
        self._local.depth = max(0, getattr(self._local, "depth", 1) - 1)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)


#: The process-wide active tracer (module-level rebinding via set_tracer).
_active_tracer: NullTracer = NullTracer()


def get_tracer() -> NullTracer:
    """The active tracer (a no-op :class:`NullTracer` unless enabled)."""
    return _active_tracer


def set_tracer(tracer: NullTracer) -> NullTracer:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    return previous


def enable_tracing() -> Tracer:
    """Install a fresh recording tracer and flag worker processes via env.

    Returns the installed tracer.  The environment flag only toggles
    telemetry collection in workers; results are unaffected either way.
    """
    tracer = Tracer()
    set_tracer(tracer)
    os.environ[ENV_TRACE] = "1"
    return tracer


def disable_tracing() -> None:
    """Restore the no-op tracer and clear the worker flag."""
    set_tracer(NullTracer())
    os.environ.pop(ENV_TRACE, None)


def configure_worker() -> None:
    """Pool-worker initializer: fresh tracer + metrics, per REPRO_TRACE.

    Forked workers inherit the parent's tracer records and metric values;
    without this reset their snapshots would double-count parent state.
    """
    from . import metrics

    if os.environ.get(ENV_TRACE):  # repro: noqa[R011] -- telemetry on/off flag for workers, never affects results; worker-root boundary is exactly where config reads belong
        set_tracer(Tracer())
    else:
        set_tracer(NullTracer())
    metrics.registry().reset()
