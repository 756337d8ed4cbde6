"""Named counters, gauges and histograms with enforced unit suffixes.

Every metric name must end in a unit suffix (``_bytes``, ``_elems``,
``_cycles``, ``_count``, ``_ns``, ``_seconds``, ``_ratio``, ``_bits``) —
the same convention the R043 unit lint applies to variables, enforced
here at registration time, traced or not.

The registry is per-process; worker processes reset theirs at pool entry
(:func:`repro.obs.tracer.configure_worker`) and return
:meth:`MetricsRegistry.snapshot` dicts, which the engine merges with
:meth:`MetricsRegistry.merge` — counters add, gauges last-write-wins,
histograms pool their moments.
"""

from __future__ import annotations

import threading

#: Accepted metric-name unit suffixes.
UNIT_SUFFIXES: tuple[str, ...] = (
    "_bytes",
    "_bits",
    "_elems",
    "_cycles",
    "_count",
    "_ns",
    "_seconds",
    "_ratio",
)


def has_unit_suffix(name: str) -> bool:
    """Whether a metric name carries one of the accepted unit suffixes."""
    return name.endswith(UNIT_SUFFIXES)


def _check_name(name: str) -> str:
    if not has_unit_suffix(name):
        raise ValueError(
            f"metric name {name!r} lacks a unit suffix (one of {', '.join(UNIT_SUFFIXES)})"
        )
    return name


class Counter:
    """A monotonically increasing value (thread-safe).

    Handler threads all bump the same instrument, so the increment —
    a read-modify-write on a float — takes a per-instrument lock.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: int | float = 1) -> None:
        """Increase the counter (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (add {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins; thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = float(value)


class Histogram:
    """Streaming distribution summary: count / sum / min / max.

    Thread-safe: observations and snapshot merges mutate several fields
    that must stay mutually consistent, so both take the instrument lock.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: int | float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            if self.count == 0:
                self.min = self.max = value
            else:
                self.min = min(self.min, value)
                self.max = max(self.max, value)
            self.count += 1
            self.total += value

    def merge_summary(self, summary: dict[str, float]) -> None:
        """Pool another histogram's summary into this one."""
        with self._lock:
            if self.count == 0:
                self.min = summary["min"]
                self.max = summary["max"]
            else:
                self.min = min(self.min, summary["min"])
                self.max = max(self.max, summary["max"])
            self.count += int(summary["count"])
            self.total += summary["sum"]

    def summary(self) -> dict[str, float]:
        """The distribution summary as a plain dict."""
        with self._lock:
            return {
                "count": float(self.count),
                "sum": self.total,
                "min": self.min,
                "max": self.max,
            }


#: Shape of :meth:`MetricsRegistry.snapshot` — picklable, JSON-safe.
Snapshot = dict[str, dict[str, float] | dict[str, dict[str, float]]]


class MetricsRegistry:
    """Create-or-get registry of named instruments (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(_check_name(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(_check_name(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first use."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(_check_name(name))
        return instrument

    def snapshot(self) -> Snapshot:
        """All current values as a plain (picklable, JSON-safe) dict."""
        with self._lock:
            counters = {name: c.value for name, c in sorted(self._counters.items())}
            gauges = {name: g.value for name, g in sorted(self._gauges.items())}
            histograms = {
                name: h.summary() for name, h in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: Snapshot) -> None:
        """Fold another registry's snapshot into this one.

        Counters accumulate, gauges take the incoming value, histograms
        pool count/sum and widen min/max.
        """
        for name, value in snapshot.get("counters", {}).items():
            assert isinstance(value, float)
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            assert isinstance(value, float)
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            assert isinstance(summary, dict)
            if not summary.get("count"):
                continue
            self.histogram(name).merge_summary(summary)

    def reset(self) -> None:
        """Drop every instrument (used by tests and worker initializers)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def diff_snapshots(before: Snapshot, after: Snapshot) -> Snapshot:
    """``after`` minus ``before``: the metrics delta of a code window.

    Counters and histogram count/sum subtract; gauges and histogram
    min/max take the ``after`` value (a gauge is a point-in-time reading,
    and a histogram's extrema are not invertible — documented
    approximation, exact whenever ``before`` is empty, as it is in
    freshly initialized worker processes).
    """
    def _flat(snapshot: Snapshot, section: str) -> dict[str, float]:
        values = snapshot.get(section, {})
        return {k: v for k, v in values.items() if isinstance(v, float)}

    def _nested(snapshot: Snapshot, section: str) -> dict[str, dict[str, float]]:
        values = snapshot.get(section, {})
        return {k: v for k, v in values.items() if isinstance(v, dict)}

    counters_before = _flat(before, "counters")
    counters = {
        name: value - counters_before.get(name, 0.0)
        for name, value in _flat(after, "counters").items()
        if value - counters_before.get(name, 0.0) != 0.0
    }
    gauges = dict(_flat(after, "gauges"))
    histograms: dict[str, dict[str, float]] = {}
    hists_before = _nested(before, "histograms")
    for name, summary in _nested(after, "histograms").items():
        prior = hists_before.get(name, {})
        count = summary["count"] - prior.get("count", 0.0)
        if count <= 0:
            continue
        histograms[name] = {
            "count": count,
            "sum": summary["sum"] - prior.get("sum", 0.0),
            "min": summary["min"],
            "max": summary["max"],
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: The process-wide registry (workers reset theirs at pool entry).
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry
