"""Parallel + persistently cached experiment execution engine.

Each entry of the ``ARTIFACTS`` registry is an independent table
generator, so the suite fans out by artifact: with ``jobs > 1`` the
selected artifacts are mapped across a process pool whose workers share
the persistent on-disk cache (:mod:`repro.experiments.cache`).  What an
artifact plans lives only in that artifact's module; inside one process
its cells share the in-process memos.

Results are **bit-identical** to the serial path: workers return the
same frozen dataclasses (pickle round-trips floats exactly), tables are
assembled in the requested artifact order, and the parity suite asserts
serial == parallel == warm-cache output.

Every run is instrumented: per-artifact wall time and cache hit/miss
counts, read from the metrics each worker returns, surface in the runner
summary.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..obs import (
    SpanRecord,
    Snapshot,
    clock,
    configure_worker,
    diff_snapshots,
    export,
    get_tracer,
    metrics_registry,
)
from ..report.table import Table
from . import cache

# ----------------------------------------------------------------------
# Worker functions (top-level so the process pool can pickle them)
# ----------------------------------------------------------------------


def _telemetry_delta(metrics_before: Snapshot) -> dict[str, Any]:
    """Spans recorded and metrics accumulated since ``metrics_before``.

    Draining the tracer moves the spans into the return value (the engine
    re-ingests them into its report), so repeated calls never duplicate.
    """
    return {
        "spans": get_tracer().drain(),
        "metrics": diff_snapshots(metrics_before, metrics_registry().snapshot()),
    }


def _artifact_worker(name: str) -> tuple[Table, float, dict[str, Any]]:
    """Run one artifact: its table, wall time and telemetry."""
    from .runner import ARTIFACTS

    metrics_before = metrics_registry().snapshot()
    start_ns = clock.monotonic_ns()
    with get_tracer().start("artifact", name=name):
        table = ARTIFACTS[name]()
    seconds = clock.elapsed_seconds(start_ns)
    return table, seconds, _telemetry_delta(metrics_before)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class ArtifactResult:
    """Timing + cache instrumentation for one generated artifact."""

    name: str
    table: Table
    seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0


@dataclass
class EngineReport:
    """Everything one engine run produced and measured."""

    results: list[ArtifactResult]
    jobs: int
    total_seconds: float
    #: Spans collected across the run (workers' merged with the parent's).
    spans: tuple[SpanRecord, ...] = ()
    #: Merged metrics delta of the run (counters add across workers).
    metrics: Snapshot = field(default_factory=dict)

    @property
    def tables(self) -> list[Table]:
        return [r.table for r in self.results]

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.results)

    def summary_table(self) -> Table:
        """Per-artifact wall time and cache traffic (the runner summary)."""
        table = Table(
            title=f"Experiment engine summary (jobs={self.jobs})",
            headers=["Artifact", "Seconds", "Cache hits", "Cache misses"],
        )
        for r in self.results:
            table.add_row(r.name, round(r.seconds, 2), r.cache_hits, r.cache_misses)
        table.add_row("TOTAL (wall)", round(self.total_seconds, 2),
                      self.cache_hits, self.cache_misses)
        return table

    def telemetry_payload(self) -> dict[str, object]:
        """The run as a ``repro-telemetry/1`` payload (``--trace-out``)."""
        return export.telemetry_payload(
            self.spans,
            self.metrics,
            meta={
                "tool": "repro-experiments",
                "jobs": str(self.jobs),
                "artifacts": ",".join(r.name for r in self.results),
            },
        )

    def write_trace(self, path: str | Path) -> Path:
        """Export the run's telemetry as Perfetto-loadable JSON."""
        return export.write_trace(path, self.telemetry_payload())

    def metrics_table(self) -> Table:
        """The run's merged metric counters/gauges/histograms as a table."""
        table = Table(
            title="Run metrics", headers=["Metric", "Kind", "Value"]
        )
        counters = self.metrics.get("counters", {})
        gauges = self.metrics.get("gauges", {})
        histograms = self.metrics.get("histograms", {})
        for name, value in sorted(counters.items()):
            assert isinstance(value, float)
            table.add_row(name, "counter", int(value) if value.is_integer() else value)
        for name, value in sorted(gauges.items()):
            table.add_row(name, "gauge", value)
        for name, summary in sorted(histograms.items()):
            assert isinstance(summary, dict)
            table.add_row(
                name,
                "histogram",
                f"n={summary['count']:.0f} sum={summary['sum']:.4g} "
                f"min={summary['min']:.4g} max={summary['max']:.4g}",
            )
        return table


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass
class _TelemetrySink:
    """Accumulates worker span batches and metric deltas during a run."""

    spans: list[SpanRecord] = field(default_factory=list)
    metrics: Any = None  # lazily created MetricsRegistry

    def absorb(self, delta: dict[str, Any]) -> None:
        from ..obs import MetricsRegistry

        self.spans.extend(delta.get("spans", ()))
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        self.metrics.merge(delta.get("metrics", {}))

    def snapshot(self) -> Snapshot:
        if self.metrics is None:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        snapshot: Snapshot = self.metrics.snapshot()
        return snapshot


def _absorb(
    names: Sequence[str],
    outcomes: Iterable[tuple[Table, float, dict[str, Any]]],
    sink: _TelemetrySink,
) -> list[ArtifactResult]:
    """Absorb each artifact worker's telemetry; its cache counts come from it."""
    results: list[ArtifactResult] = []
    for name, (table, seconds, telemetry) in zip(names, outcomes):
        sink.absorb(telemetry)
        counts = cache.counters(telemetry["metrics"])
        results.append(
            ArtifactResult(
                name=name,
                table=table,
                seconds=seconds,
                cache_hits=counts["hits"],
                cache_misses=counts["misses"],
                cache_stores=counts["stores"],
            )
        )
    return results


def run_experiments(names: Sequence[str], jobs: int = 1) -> EngineReport:
    """Generate the named artifacts, serially or across a process pool.

    ``jobs <= 1`` runs in-process; ``jobs > 1`` maps the artifact list
    across at most ``jobs`` workers sharing the persistent cache.  Output
    tables are identical either way and are returned in the requested
    order.

    The returned report carries the run's telemetry — merged worker
    spans and metric deltas — whether or not tracing is enabled (spans
    are simply empty under the no-op tracer).
    """
    from .runner import ARTIFACTS

    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        from .runner import UnknownArtifactError

        raise UnknownArtifactError(unknown, list(ARTIFACTS))
    sink = _TelemetrySink()
    start_ns = clock.monotonic_ns()
    jobs = max(jobs, 1)
    if jobs == 1:
        results = _absorb(names, map(_artifact_worker, names), sink)
    else:
        # A forked pool starts all its workers at the first submit, so it
        # gets no more of them than there are artifacts.  configure_worker
        # gives each a fresh tracer/metrics state (forked workers would
        # otherwise inherit — and re-report — the parent's spans and
        # counter values).
        workers = max(1, min(jobs, len(names)))
        with ProcessPoolExecutor(max_workers=workers, initializer=configure_worker) as pool:
            results = _absorb(names, pool.map(_artifact_worker, names), sink)
    total_seconds = clock.elapsed_seconds(start_ns)
    sink.spans.extend(get_tracer().drain())
    return EngineReport(
        results=results,
        jobs=jobs,
        total_seconds=total_seconds,
        spans=tuple(sink.spans),
        metrics=sink.snapshot(),
    )
