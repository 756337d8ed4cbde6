"""Parallel + persistently cached experiment execution engine.

The paper-artifact suite is embarrassingly parallel at two levels:

* **across artifacts** — each entry of the ``ARTIFACTS`` registry is an
  independent table generator;
* **within the heavy artifacts** — Figs. 5/7/8 etc. iterate a
  (model × GLB-size) grid whose cells are independent planning problems.

The engine exploits both.  With ``jobs > 1`` it first *prewarms* the
persistent on-disk cache (:mod:`repro.experiments.cache`): the union of
the selected artifacts' plan grids is fanned across a process pool, each
worker writing its plans/baselines into the shared content-addressed
store.  The artifacts themselves then run (also across the pool) against
a warm cache, so even a single heavy artifact like ``fig8`` parallelizes.

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
from typing import Any, Callable, Sequence

from ..analyzer import Objective
from ..arch.spec import PAPER_DATA_WIDTHS
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

#: One planning task of the (model × GLB × flags) grid:
#: (kind, model, glb_kb, objective, data_width_bits, prefetch, interlayer, mode).
PlanTask = tuple[str, str, int, str, int, bool, bool, str]


def _het(
    model: str,
    glb_kb: int,
    objective: str = "accesses",
    width: int = 8,
    prefetch: bool = True,
    interlayer: bool = False,
    mode: str = "opportunistic",
) -> PlanTask:
    return ("het", model, glb_kb, objective, width, prefetch, interlayer, mode)


def _hom(model: str, glb_kb: int, objective: str = "accesses", width: int = 8) -> PlanTask:
    return ("hom", model, glb_kb, objective, width, True, False, "-")


def _baseline(model: str, glb_kb: int, width: int = 8) -> PlanTask:
    return ("baseline", model, glb_kb, "-", width, True, False, "-")


def _grid_models() -> tuple[str, ...]:
    from .common import all_model_names

    return all_model_names()


def _grid_sizes() -> tuple[int, ...]:
    from .common import GLB_SIZES_KB

    return GLB_SIZES_KB


def plan_tasks(names: Sequence[str]) -> list[PlanTask]:
    """The union of the selected artifacts' planning grids, deduplicated.

    Only the heavy artifacts are enumerated; cheap ones (``table2``,
    ``fig1``, ``fig3``, …) plan so little that prewarming them would cost
    more in process traffic than it saves.
    """
    models, sizes = _grid_models(), _grid_sizes()
    grids: dict[str, Callable[[], list[PlanTask]]] = {
        "fig5": lambda: [
            task
            for m in models
            for s in sizes
            for task in (_baseline(m, s), _hom(m, s), _het(m, s))
        ],
        "fig7": lambda: [
            task
            for w in PAPER_DATA_WIDTHS
            for s in sizes
            for task in (_hom("MobileNetV2", s, width=w), _het("MobileNetV2", s, width=w))
        ],
        "fig8": lambda: [_baseline(m, sizes[0]) for m in models]
        + [
            task
            for m in models
            for s in sizes
            for o in ("accesses", "latency")
            for task in (_hom(m, s, o), _het(m, s, o))
        ],
        "fig9": lambda: [
            _het(m, 64, o) for m in models for o in ("accesses", "latency")
        ],
        "fig10": lambda: [
            _het("MobileNet", s, "latency", prefetch=p) for s in sizes for p in (True, False)
        ],
        "fig11": lambda: [
            task for s in sizes for task in (_het("MnasNet", s), _het("MnasNet", s, interlayer=True))
        ],
        "fig6": lambda: [_het("ResNet18", 64)],
        "table4": lambda: [_het(m, 64) for m in models],
        "energy": lambda: [
            task for m in models for s in sizes for task in (_baseline(m, s), _het(m, s))
        ],
        "dram-sweep": lambda: [_het(m, 256) for m in models],
        "bounds": lambda: [
            task
            for m in models
            for s in (64, 256, 1024)
            for task in (_het(m, s), _het(m, s, interlayer=True))
        ],
        "ablation-interlayer": lambda: [
            task
            for s in sizes
            for task in (
                _het("MnasNet", s),
                _het("MnasNet", s, interlayer=True),
                _het("MnasNet", s, interlayer=True, mode="joint"),
            )
        ],
        "ablation-fallback": lambda: [
            _het(m, s) for m in ("ResNet18", "EfficientNetB0") for s in (64, 128, 256)
        ],
    }
    seen: dict[PlanTask, None] = {}
    for name in names:
        enumerate_grid = grids.get(name)
        if enumerate_grid is None:
            continue
        for task in enumerate_grid():
            seen.setdefault(task, None)
    return list(seen)


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


def _warm_worker(task: PlanTask) -> dict[str, Any]:
    """Compute one grid cell into the shared on-disk cache."""
    from . import common

    metrics_before = metrics_registry().snapshot()
    kind, model, glb_kb, objective, width, prefetch, interlayer, mode = task
    metrics_registry().counter("cache_prewarm_tasks_count").add(1)
    with get_tracer().start("prewarm_task", kind=kind, model=model, glb_kb=glb_kb):
        if kind == "baseline":
            common.baseline_results(model, glb_kb, width)
        elif kind == "hom":
            common.hom_plan(model, glb_kb, Objective(objective), width, prefetch)
        else:
            common.het_plan(
                model, glb_kb, Objective(objective), width, prefetch, interlayer, mode
            )
    return _telemetry_delta(metrics_before)


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
    prewarm_tasks: int = 0
    prewarm_seconds: float = 0.0
    prewarm_stats: dict[str, int] = field(
        default_factory=lambda: {"hits": 0, "misses": 0, "stores": 0}
    )
    #: Spans collected across the run (workers' merged with the parent's).
    spans: tuple[SpanRecord, ...] = ()
    #: Merged metrics delta of the run (counters add across workers).
    metrics: Snapshot = field(default_factory=dict)

    @property
    def tables(self) -> list[Table]:
        return [r.table for r in self.results]

    @property
    def cache_hits(self) -> int:
        return self.prewarm_stats["hits"] + sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        return self.prewarm_stats["misses"] + sum(r.cache_misses for r in self.results)

    def summary_table(self) -> Table:
        """Per-artifact wall time and cache traffic (the runner summary)."""
        table = Table(
            title=f"Experiment engine summary (jobs={self.jobs})",
            headers=["Artifact", "Seconds", "Cache hits", "Cache misses"],
        )
        for r in self.results:
            table.add_row(r.name, round(r.seconds, 2), r.cache_hits, r.cache_misses)
        if self.prewarm_tasks:
            table.add_row(
                "(prewarm grid)",
                round(self.prewarm_seconds, 2),
                self.prewarm_stats["hits"],
                self.prewarm_stats["misses"],
            )
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


def _artifact_result(
    name: str, outcome: tuple[Table, float, dict[str, Any]], sink: _TelemetrySink
) -> ArtifactResult:
    """Absorb one artifact worker's telemetry; its cache counts come from it."""
    table, seconds, telemetry = outcome
    sink.absorb(telemetry)
    counts = cache.counters(telemetry["metrics"])
    return ArtifactResult(
        name=name,
        table=table,
        seconds=seconds,
        cache_hits=counts["hits"],
        cache_misses=counts["misses"],
        cache_stores=counts["stores"],
    )


def _run_serial(
    names: Sequence[str], sink: _TelemetrySink
) -> list[ArtifactResult]:
    return [_artifact_result(name, _artifact_worker(name), sink) for name in names]


def _run_parallel(
    names: Sequence[str], jobs: int, prewarm: bool, sink: _TelemetrySink
) -> tuple[list[ArtifactResult], int, float, dict[str, int]]:
    warm_stats = {"hits": 0, "misses": 0, "stores": 0}
    tasks = plan_tasks(names) if prewarm and cache.cache_enabled() else []
    warm_seconds = 0.0
    # configure_worker gives every pool worker a fresh tracer/metrics state
    # (forked workers would otherwise inherit — and re-report — the
    # parent's spans and counter values).
    with ProcessPoolExecutor(max_workers=jobs, initializer=configure_worker) as pool:
        if tasks:
            start_ns = clock.monotonic_ns()
            with get_tracer().start("prewarm_grid", tasks_count=len(tasks)):
                for delta in pool.map(_warm_worker, tasks):
                    sink.absorb(delta)
            warm_seconds = clock.elapsed_seconds(start_ns)
            # The sink holds the prewarm deltas only, so far.
            warm_stats = cache.counters(sink.snapshot())
        futures = [(name, pool.submit(_artifact_worker, name)) for name in names]
        results = [_artifact_result(name, future.result(), sink) for name, future in futures]
    return results, len(tasks), warm_seconds, warm_stats


def run_experiments(
    names: Sequence[str], jobs: int = 1, prewarm: bool = True
) -> EngineReport:
    """Generate the named artifacts, serially or across a process pool.

    ``jobs <= 1`` runs in-process (the exact historical serial path);
    ``jobs > 1`` fans the plan grid and the artifact list across
    ``jobs`` workers sharing the persistent cache.  Output tables are
    identical either way and are returned in the requested order.

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
    if jobs <= 1:
        results = _run_serial(names, sink)
        report = EngineReport(
            results=results, jobs=1, total_seconds=clock.elapsed_seconds(start_ns)
        )
    else:
        results, n_tasks, warm_seconds, warm_stats = _run_parallel(
            names, jobs, prewarm, sink
        )
        report = EngineReport(
            results=results,
            jobs=jobs,
            total_seconds=clock.elapsed_seconds(start_ns),
            prewarm_tasks=n_tasks,
            prewarm_seconds=warm_seconds,
            prewarm_stats=warm_stats,
        )
    # Parent-side spans (e.g. the prewarm_grid phase) join the worker spans.
    sink.spans.extend(get_tracer().drain())
    report.spans = tuple(sink.spans)
    report.metrics = sink.snapshot()
    return report
