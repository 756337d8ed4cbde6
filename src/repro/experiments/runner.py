"""Run every experiment and print/export the paper artifacts.

Usage::

    python -m repro.experiments                 # print all tables
    python -m repro.experiments --csv DIR       # also write one CSV per artifact
    python -m repro.experiments --jobs 4        # fan across a process pool
    python -m repro.experiments --no-cache      # bypass the persistent cache

Execution is delegated to :mod:`repro.experiments.engine`: artifacts fan
across ``--jobs`` workers, backed by the persistent plan cache in
:mod:`repro.experiments.cache`.  Output is bit-identical at any job count
and cache temperature; a summary reports per-artifact wall time and cache
hits/misses.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from .engine import EngineReport

from .. import obs
from ..report.table import Table
from . import ablations, bounds, cache, dram_sweep, energy, fig1, fig3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, resolution
from . import table2, table3, table4

#: artifact id -> callable producing its Table.
ARTIFACTS: dict[str, Callable[[], Table]] = {
    "table2": lambda: table2.to_table(table2.run()),
    "table3": lambda: table3.to_table(table3.run()),
    "table4": lambda: table4.to_table(table4.run()),
    "fig1": lambda: fig1.to_table(fig1.run()),
    "fig3": lambda: fig3.to_table(fig3.run()),
    "fig5": lambda: fig5.to_table(fig5.run()),
    "fig6": lambda: fig6.to_table(fig6.run()),
    "fig7": lambda: fig7.to_table(fig7.run()),
    "fig8": lambda: fig8.to_table(fig8.run()),
    "fig9": lambda: fig9.to_table(fig9.run()),
    "fig10": lambda: fig10.to_table(fig10.run()),
    "fig11": lambda: fig11.to_table(fig11.run()),
    # Extensions (not paper artifacts):
    "energy": lambda: energy.to_table(energy.run()),
    "ablation-interlayer": lambda: ablations.interlayer_modes_table(
        ablations.interlayer_modes()
    ),
    "ablation-fallback": lambda: ablations.fallback_participation_table(
        ablations.fallback_participation()
    ),
    "ablation-dataflow": lambda: ablations.baseline_dataflows_table(
        ablations.baseline_dataflows()
    ),
    "resolution": lambda: resolution.to_table(resolution.run()),
    "bounds": lambda: bounds.to_table(bounds.run()),
    "dram-sweep": lambda: dram_sweep.to_table(
        dram_sweep.run(),
        title=f"DRAM mapping sweep (Het_a @ {dram_sweep.SWEEP_GLB_KB} kB, DDR4-like)",
    ),
}


class UnknownArtifactError(KeyError):
    """Raised when a requested artifact id is not in the registry.

    Subclasses :class:`KeyError` for backward compatibility; the CLIs
    convert it to an argparse-style error (exit code 2) instead of a raw
    traceback.
    """

    def __init__(self, unknown: Sequence[str], available: Sequence[str]) -> None:
        self.unknown = list(unknown)
        self.available = list(available)
        super().__init__(
            f"unknown artifact(s) {', '.join(self.unknown)}; "
            f"available: {', '.join(self.available)}"
        )

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message; keep it readable.
        return self.args[0] if self.args else ""


def run_all(
    csv_dir: str | None = None,
    only: list[str] | None = None,
    jobs: int = 1,
) -> list[Table]:
    """Generate (and optionally export) the selected artifacts.

    Raises :class:`UnknownArtifactError` for ids not in :data:`ARTIFACTS`.
    """
    return run_report(csv_dir=csv_dir, only=only, jobs=jobs).tables


def run_report(
    csv_dir: str | None = None,
    only: list[str] | None = None,
    jobs: int = 1,
) -> "EngineReport":
    """Like :func:`run_all` but returns the instrumented engine report."""
    from .engine import run_experiments

    names = only or list(ARTIFACTS)
    report = run_experiments(names, jobs=jobs)
    if csv_dir is not None:
        out = Path(csv_dir)
        out.mkdir(parents=True, exist_ok=True)
        for result in report.results:
            result.table.save_csv(out / f"{result.name}.csv")
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: print (and optionally export) artifacts."""
    from ..cli import add_experiment_arguments

    parser = argparse.ArgumentParser(prog="python -m repro.experiments", description=__doc__)
    add_experiment_arguments(parser)
    return run(parser, parser.parse_args(argv))


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the artifacts ``args`` select; ``parser`` reports usage errors.

    ``--no-cache`` and ``--trace-out`` are exported through the
    environment so the engine's worker processes inherit them; both are
    undone before returning, also when the run raises.
    """
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    unknown = [n for n in args.artifacts if n not in ARTIFACTS]
    if unknown:
        parser.error(
            f"unknown artifact(s): {', '.join(unknown)}\n"
            f"available artifacts: {', '.join(ARTIFACTS)}"
        )

    # Set only when the cache is on, so an inherited kill-switch stays put.
    disable_cache = args.no_cache and cache.cache_enabled()
    try:
        if disable_cache:
            os.environ[cache.ENV_NO_CACHE] = "1"
        if args.trace_out:
            # Telemetry only: results are bit-identical with tracing on or off.
            obs.enable_tracing()
        report = run_report(
            csv_dir=args.csv, only=args.artifacts or None, jobs=args.jobs
        )
        for table in report.tables:
            print(table.render())
            print()
        print(report.summary_table().render())
        if args.metrics:
            print()
            print(report.metrics_table().render())
        if args.trace_out:
            path = report.write_trace(args.trace_out)
            print(f"\ntrace written to {path} (load in Perfetto or chrome://tracing)")
    finally:
        if args.trace_out:
            obs.disable_tracing()
        if disable_cache:
            os.environ.pop(cache.ENV_NO_CACHE, None)
    return 0
