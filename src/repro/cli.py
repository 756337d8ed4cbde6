"""Command-line interface.

Usage::

    python -m repro models                         # list the zoo
    python -m repro inspect ResNet18               # per-layer shapes/footprints
    python -m repro plan ResNet18 --glb 64         # Het plan + summary
    python -m repro plan model.json --objective latency --export plan.json
    python -m repro baseline ResNet18 --glb 64     # the three sa_* baselines
    python -m repro compare ResNet18 --glb 64      # plan vs baselines
    python -m repro sweep ResNet18 --glb 64,128,256,512,1024
    python -m repro dram ResNet18 --glb 256        # DRAM mapping-policy sweep
    python -m repro experiments fig5 table3        # regenerate paper artifacts
    python -m repro verify --all --format json     # V0xx plan invariants
    python -m repro lint src/repro --strict        # R0xx source lint
    python -m repro serve --port 8077 --jobs 2     # planning-as-a-service daemon
    python -m repro cache stats                    # shared plan-cache stats
    python -m repro bench serve --clients 4        # daemon load generator

Model arguments accept either a zoo name or a path to a JSON model
description (the Fig. 4 input format, see ``repro.nn.io``).  A command's
model, accelerator and scheme flags are checked by the daemon's request
validator (:mod:`repro.serve.protocol`, :mod:`repro.serve.handlers`),
with its defaults.

Exit codes: 0 ok; 1 a check found problems (``verify``, ``lint``,
``bench serve``); 2 bad input, reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

from .analyzer import ExecutionPlan, Objective, save_plan
from .arch.spec import PAPER_GLB_SIZES, AcceleratorSpec
from .arch.units import kib, to_kib, to_mib
from .energy import plan_energy
from .manager import MemoryManager
from .nn.io import load_model
from .nn.layer import LayerSpec
from .nn.model import Model
from .nn.stats import layer_breakdown
from .nn.zoo import PAPER_MODEL_NAMES, find_model_name, get_model
from .report.table import Table
from .serve.handlers import _canonical_request, _resolve_model_name, request_spec
from .serve.protocol import PlanRequest, ProtocolError, parse_plan_request

#: The paper's GLB sizes in kB (``verify --all`` and ``sweep`` default).
_PAPER_GLB_KB = [size // kib(1) for size in PAPER_GLB_SIZES]


def _request(args: argparse.Namespace, **fields: Any) -> PlanRequest:
    """The command's :class:`PlanRequest` flags, updated with ``fields``,
    validated as a request body; ``model`` stays as typed (a zoo name or
    a model file path)."""
    params = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(PlanRequest)}
    params.update(fields)
    return parse_plan_request({k: v for k, v in params.items() if v is not None})


def _resolve_model(name_or_path: str) -> Model:
    """A zoo model by name (in any case), else a JSON model file.

    A name that is neither is the daemon's ``unknown-model`` error; a
    model file that cannot be read, is not JSON or fails validation is a
    ``bad-request``.
    """
    path = Path(name_or_path)
    if find_model_name(name_or_path) is None and path.exists():
        try:
            return load_model(path)
        except (OSError, ValueError) as exc:
            raise ProtocolError("bad-request", f"bad model file {name_or_path!r}: {exc}") from None
    return get_model(_resolve_model_name(name_or_path))


def _inputs(args: argparse.Namespace, *, baselines: bool = False) -> tuple[Model, AcceleratorSpec]:
    """The model and accelerator a one-model command's flags name."""
    request = _request(args)
    return _resolve_model(request.model), request_spec(request, baselines=baselines)


@contextlib.contextmanager
def _feasible() -> Iterator[None]:
    """Planning that finds no policy fitting the GLB is a ``bad-request``,
    as the daemon answers it."""
    try:
        yield
    except ValueError as exc:
        raise ProtocolError("bad-request", str(exc)) from None


def _plan(model: Model, spec: AcceleratorSpec, args: argparse.Namespace) -> ExecutionPlan:
    """``model`` planned as the command's flags ask, uncached: the CLI
    writes no cache entries."""
    with _feasible():
        return MemoryManager(spec).plan(
            model,
            Objective(args.objective),
            scheme=getattr(args, "scheme", PlanRequest.scheme),
            interlayer=getattr(args, "interlayer", PlanRequest.interlayer),
        )


def _models(args: argparse.Namespace) -> list[str]:
    """The model arguments of a command that also takes ``--all``."""
    if args.all:
        return list(PAPER_MODEL_NAMES)
    if args.model:
        return [args.model]
    raise ProtocolError("bad-request", "give a model name/path or --all")


def _find_layer(model: Model, name: str) -> LayerSpec:
    """A layer of ``model`` by name."""
    try:
        return model.find(name)
    except KeyError:
        raise ProtocolError(
            "bad-request",
            f"{model.name} has no layer {name!r} (see `repro inspect {model.name}`)",
        ) from None


def _parse_glb_list(text: str) -> list[int]:
    """Parse a ``64,128,256`` list of kB sizes (the spec checks their range)."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ProtocolError(
            "bad-request", f"GLB sizes must be comma-separated kB integers, got {text!r}"
        ) from None


def cmd_models(args: argparse.Namespace) -> int:
    """List the model zoo with parameter/MAC totals."""
    table = Table(title="Model zoo (Table 2)", headers=["Name", "Layers", "GMACs", "Weights (M)"])
    for name in PAPER_MODEL_NAMES:
        model = get_model(name)
        table.add_row(
            name,
            model.num_layers,
            round(model.total_macs / 1e9, 2),
            round(model.total_weight_elems / 1e6, 2),
        )
    print(table.render())
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Per-layer shapes and memory footprints of a model."""
    model, spec = _inputs(args)
    table = Table(
        title=f"{model.name}: {model.num_layers} layers",
        headers=["Layer", "Kind", "Input", "Output", "ifmap kB", "filter kB", "ofmap kB"],
    )
    for layer in model.layers:
        b = layer_breakdown(layer, spec)
        table.add_row(
            layer.name,
            layer.kind.value,
            f"{layer.in_h}x{layer.in_w}x{layer.in_c}",
            f"{layer.out_h}x{layer.out_w}x{layer.out_c}",
            round(to_kib(b.ifmap_bytes), 1),
            round(to_kib(b.filter_bytes), 1),
            round(to_kib(b.ofmap_bytes), 1),
        )
    print(table.render())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Produce, summarize and optionally export an execution plan."""
    model, spec = _inputs(args)
    plan = _plan(model, spec, args)
    table = Table(
        title=f"{model.name} @ {args.glb_kb} kB — {plan.scheme}, objective={args.objective}",
        headers=["Layer", "Policy", "Mem kB", "Accesses kB", "Latency (cyc)", "IL"],
    )
    for a in plan:
        flags = ("r" if a.receives else "") + ("d" if a.donates else "")
        table.add_row(
            a.layer.name,
            a.label,
            round(to_kib(a.memory_bytes), 1),
            round(to_kib(a.accesses_bytes), 1),
            int(a.latency_cycles),
            flags or "-",
        )
    print(table.render())
    energy = plan_energy(plan)
    print(
        f"\ntotals: {to_mib(plan.total_accesses_bytes):.2f} MB off-chip, "
        f"{plan.total_latency_cycles:,.0f} cycles, "
        f"{energy.total_uj:.1f} µJ ({energy.dram_share:.0%} DRAM), "
        f"prefetch coverage {plan.prefetch_coverage:.0%}"
    )
    if args.export:
        save_plan(plan, args.export)
        print(f"plan exported to {args.export}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Show every feasible policy for one layer (Algorithm 1's raw input)."""
    from .estimators import evaluate_layer

    model, spec = _inputs(args)
    layer = _find_layer(model, args.layer)
    evaluations = evaluate_layer(layer, spec)
    table = Table(
        title=f"{model.name}/{layer.name} @ {args.glb_kb} kB: policy candidates",
        headers=["Policy", "n", "Mem kB", "Accesses kB", "Latency (cyc)", "DMA", "Compute"],
    )
    for ev in sorted(evaluations, key=lambda e: e.accesses_bytes):
        table.add_row(
            ev.label,
            ev.plan.block_size if ev.plan.block_size is not None else "-",
            round(to_kib(ev.memory_bytes), 1),
            round(to_kib(ev.accesses_bytes), 1),
            int(ev.latency_cycles),
            int(ev.latency.dma_cycles),
            int(ev.latency.compute_cycles),
        )
    print(table.render())
    if not evaluations:
        print("no feasible policy — even the tile search cannot fit this GLB")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    """Simulate the three fixed-partition baselines."""
    from .scalesim import baseline_configs, simulate

    model, spec = _inputs(args, baselines=True)
    table = Table(
        title=f"{model.name}: SCALE-Sim-style baselines @ {args.glb_kb} kB",
        headers=["Partition", "DRAM MB", "Cycles", "Mean PE util"],
    )
    configs = baseline_configs(spec.glb_bytes, data_width_bits=spec.data_width_bits)
    for label, config in configs.items():
        result = simulate(model, config)
        table.add_row(
            label,
            round(to_mib(result.total_traffic_bytes), 2),
            result.total_cycles,
            f"{result.mean_utilization:.0%}",
        )
    print(table.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Plan the model and compare against the baselines."""
    model, spec = _inputs(args, baselines=True)
    with _feasible():
        comparison = MemoryManager(spec).compare_with_baseline(model, Objective(args.objective))
    table = Table(
        title=f"{model.name} @ {args.glb_kb} kB: proposed vs baselines",
        headers=["Scheme", "DRAM MB"],
    )
    for label, result in comparison.baselines.items():
        table.add_row(label, round(to_mib(result.total_traffic_bytes), 2))
    table.add_row(
        f"Het ({args.objective})",
        round(to_mib(comparison.plan.total_accesses_bytes), 2),
    )
    print(table.render())
    print(
        f"\naccess reduction vs best baseline: {comparison.accesses_reduction_pct:.1f}%"
        f"\nlatency reduction vs zero-stall baseline: "
        f"{comparison.latency_reduction_pct:.1f}%"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep the GLB capacity and report the trend."""
    from .experiments.sweep import glb_sweep, sweep_table

    sizes = _parse_glb_list(args.glb_list) if args.glb_list else _PAPER_GLB_KB
    specs = [request_spec(_request(args, glb_kb=glb_kb)) for glb_kb in sizes]
    model = _resolve_model(args.model)
    with _feasible():
        points = glb_sweep(model, [spec.glb_bytes for spec in specs], Objective(args.objective))
    title = f"{model.name}: GLB sweep (objective={args.objective})"
    print(sweep_table(title, "GLB bytes", points).render())
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    """Print the GLB address map of a plan."""
    from .sim.glb import layout_plan

    model, spec = _inputs(args)
    plan = _plan(model, spec, args)
    table = Table(
        title=f"{model.name} @ {args.glb_kb} kB: GLB address map",
        headers=["Layer", "Policy", "Region", "Offset", "End", "kB"],
    )
    for layout in layout_plan(plan):
        for region in sorted(layout.regions, key=lambda r: r.offset):
            table.add_row(
                layout.layer_name,
                layout.policy,
                region.name,
                region.offset,
                region.end,
                round(to_kib(region.size), 2),
            )
    print(table.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Emit the baseline's DRAM address trace for one layer."""
    from .scalesim import baseline_config, lower_layer
    from .scalesim.trace import TraceLimitExceeded, generate_dram_trace, trace_to_csv

    model, spec = _inputs(args, baselines=True)
    layer = _find_layer(model, args.layer)
    workload = lower_layer(layer)
    config = baseline_config(spec.glb_bytes, 0.5, data_width_bits=spec.data_width_bits)
    records = generate_dram_trace(workload, config, max_records=args.max_records)
    try:
        count = trace_to_csv(records, args.out)
    except TraceLimitExceeded as exc:
        raise ProtocolError("bad-request", str(exc)) from None
    print(f"{count:,} DRAM transactions for {model.name}/{layer.name} "
          f"written to {args.out}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    """Compare a plan against the communication lower bound."""
    from .estimators import model_bound, optimality_gap

    model, spec = _inputs(args)
    plan = _plan(model, spec, args)
    gap = optimality_gap(plan)
    print(
        f"{model.name} @ {args.glb_kb} kB: Het moves "
        f"{to_mib(plan.total_accesses_bytes):.2f} MB; lower bound "
        f"{to_mib(model_bound(model, spec)):.2f} MB "
        f"(gap {gap.gap_pct:+.1f}%)"
    )
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    """Print the accesses-vs-latency Pareto frontier."""
    from .analyzer import pareto_frontier

    model, spec = _inputs(args)
    with _feasible():
        frontier = pareto_frontier(model, spec, args.points)
    table = Table(
        title=f"{model.name} @ {args.glb_kb} kB: Pareto frontier",
        headers=["alpha", "Accesses MB", "Latency (cyc)"],
    )
    for p in frontier:
        table.add_row(
            round(p.alpha, 2),
            round(to_mib(p.accesses_bytes), 2),
            int(p.latency_cycles),
        )
    print(table.render())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically verify plans against the invariant catalog (V0xx codes)."""
    import json

    from .report.diagnostics import verify_payload
    from .verify import CODE_TITLES, describe, verify_network

    if args.list_codes:
        table = Table(title="Diagnostic codes", headers=["Code", "Title", "Invariant"])
        for code, title in sorted(CODE_TITLES.items()):
            table.add_row(code, title, describe(code))
        print(table.render())
        return 0

    names = _models(args)
    default = _PAPER_GLB_KB if args.all else [args.glb_kb]
    sizes = _parse_glb_list(args.glb_list) if args.glb_list else default
    requests = [_request(args, model=name, glb_kb=glb_kb) for name in names for glb_kb in sizes]
    models = {name: _resolve_model(name) for name in names}
    cells = [(models[r.model], r.glb_kb, request_spec(r)) for r in requests]
    schemes: list[tuple[str, bool]] = [("het", False), ("het", True)]
    if args.scheme != "het":
        schemes = [(args.scheme, False)]

    table = Table(
        title=f"Plan verification, objective={args.objective}",
        headers=["Model", "GLB kB", "Scheme", "Checks", "Diagnostics", "Status"],
    )
    reports = []
    failures = []
    for model, glb_kb, spec in cells:
        for scheme, interlayer in schemes:
            with _feasible():
                result = verify_network(
                    model, spec, scheme=scheme, objective=Objective(args.objective),
                    interlayer=interlayer,
                )
            report = result.report
            reports.append(report)
            table.add_row(
                model.name,
                glb_kb,
                result.scheme,
                report.checks,
                len(report.diagnostics),
                "ok" if report.ok else "FAILED",
            )
            if not report.ok:
                failures.append(report)
    if args.format == "json":
        print(json.dumps(verify_payload(reports), indent=2, sort_keys=True))
        return 1 if failures else 0
    print(table.render())
    for report in failures:
        print()
        print(report.render())
    if failures:
        print(f"\n{len(failures)} plan(s) FAILED verification")
        return 1
    print("\nall plans verified: every invariant holds")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the R0xx domain lint over source files (see docs/static-analysis.md).

    Exit codes: 0 clean, 1 findings above the gate, 2 usage errors.
    """
    import json

    from .analysis import RULE_TITLES, analyze_paths, describe_rule
    from .report.diagnostics import lint_payload

    if args.list_codes:
        table = Table(title="Lint rule codes", headers=["Code", "Title", "Rationale"])
        for code, title in sorted(RULE_TITLES.items()):
            table.add_row(code, title, describe_rule(code))
        print(table.render())
        return 0

    try:
        report = analyze_paths(args.paths or ["src/repro"])
    except FileNotFoundError as exc:
        raise ProtocolError("bad-request", str(exc)) from None

    if args.format == "json":
        print(json.dumps(lint_payload(report), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from .report.sarif import sarif_payload

        print(json.dumps(sarif_payload(report), indent=2, sort_keys=True))
    else:
        print(report.render(show_silenced=args.show_silenced))
    if args.max_seconds is not None and report.duration_seconds > args.max_seconds:
        print(
            f"error: lint wall time {report.duration_seconds:.2f}s exceeds "
            f"the --max-seconds {args.max_seconds:g}s budget",
            file=sys.stderr,
        )
        return 1
    return 0 if report.ok(strict=args.strict) else 1


def cmd_dram(args: argparse.Namespace) -> int:
    """Sweep DRAM data-mapping policies over each network's plan."""
    from .dram import DEFAULT_DDR4_SPEC, MAPPING_NAMES
    from .experiments import dram_sweep

    requests = [_request(args, model=name) for name in _models(args)]
    mappings = args.mappings.split(",") if args.mappings else list(MAPPING_NAMES)
    unknown = [m for m in mappings if m not in MAPPING_NAMES]
    if unknown:
        raise ProtocolError(
            "bad-request",
            f"unknown mapping(s) {unknown}; available: {', '.join(MAPPING_NAMES)}",
        )
    spec = request_spec(requests[0])
    models = [_resolve_model(r.model) for r in requests]
    plans = ((model.name, _plan(model, spec, args)) for model in models)
    title = (
        f"DRAM mapping sweep @ {args.glb_kb} kB GLB, DDR4-like "
        f"({DEFAULT_DDR4_SPEC.channels}ch x {DEFAULT_DDR4_SPEC.banks_per_channel}ba), "
        f"objective={args.objective}"
    )
    cells = dram_sweep.sweep(plans, DEFAULT_DDR4_SPEC, mappings)
    print(dram_sweep.to_table(cells, title=title).render())
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Render the planner's decision audit trail as a per-layer table."""
    import json

    model, spec = _inputs(args)
    if args.layer:
        _find_layer(model, args.layer)
    trail = _plan(model, spec, args).explain()
    if args.format == "json":
        print(json.dumps(trail.to_payload(), indent=2))
        return 0
    table = Table(
        title=(
            f"{model.name} @ {args.glb_kb} kB — {trail.scheme} decision audit "
            f"(objective={trail.objective})"
        ),
        headers=["Layer", "Candidate", "Status", "Mem kB", "Acc kB", "Reason"],
    )
    for decision in trail.layers:
        if args.layer and decision.layer != args.layer:
            continue
        for candidate in decision.candidates:
            table.add_row(
                decision.layer,
                ("* " if candidate.chosen else "  ") + candidate.label,
                candidate.status,
                "-"
                if candidate.memory_bytes is None
                else round(to_kib(candidate.memory_bytes), 1),
                "-"
                if candidate.accesses_bytes is None
                else round(to_kib(candidate.accesses_bytes), 1),
                candidate.reason,
            )
    print(table.render())
    for note in trail.notes:
        print(f"note: {note}")
    chosen = [d.chosen.label for d in trail.layers if d.chosen is not None]
    print(
        f"\n{len(trail.layers)} layers, "
        f"{sum(len(d.rows) for d in trail.layers)} candidates considered, "
        f"policies chosen: {', '.join(sorted(set(chosen)))}"
    )
    return 0


def add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the experiment runner's flags and bind ``parser`` to it.

    ``repro experiments`` and ``python -m repro.experiments`` both build
    their parser here.  The runner is imported only when a run starts:
    it imports every artifact generator, which no other subcommand needs.
    """
    parser.add_argument("--csv", metavar="DIR", help="export CSVs to this directory")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent on-disk plan cache for this run",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="enable tracing and write a Perfetto-loadable Chrome trace "
        "(repro-telemetry/1 JSON) for the run",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the run's merged metric counters/gauges/histograms",
    )
    parser.add_argument("artifacts", nargs="*", help="artifact ids to run (default: all)")
    parser.set_defaults(func=functools.partial(cmd_experiments, parser))


def cmd_experiments(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Regenerate paper artifacts through the experiment runner."""
    from .experiments.runner import run

    return run(parser, args)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the planning-as-a-service daemon until SIGINT/SIGTERM.

    ``--cache-max-mb`` exports ``REPRO_CACHE_MAX_MB`` before boot, so
    the LRU cap applies in the daemon process and every pool worker.
    """
    from .serve.server import run_server

    if args.cache_max_mb is not None:
        from .experiments.cache import ENV_CACHE_MAX_MB

        os.environ[ENV_CACHE_MAX_MB] = str(args.cache_max_mb)
    return run_server(args.host, args.port, jobs=args.jobs)


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or manage the shared on-disk plan cache."""
    from .arch.units import mib
    from .experiments import cache

    if args.action == "clear":
        removed = cache.entry_count()
        cache.clear()
        print(f"cache cleared: {removed} entries removed from {cache.cache_dir()}")
        return 0
    if args.action == "prune":
        if args.max_mb is None:
            raise ProtocolError("bad-request", "repro cache prune: --max-mb is required")
        result = cache.prune(mib(args.max_mb))
        print(
            f"pruned {result.evicted_count} entries "
            f"({to_mib(result.evicted_bytes):.2f} MiB); "
            f"{result.remaining_count} remain "
            f"({to_mib(result.remaining_bytes):.2f} MiB)"
        )
        return 0
    counters = cache.counters()
    cap = cache.cache_max_bytes()
    table = Table(
        title="Plan cache",
        headers=["Field", "Value"],
    )
    table.add_row("dir", str(cache.cache_dir()))
    table.add_row("enabled", cache.cache_enabled())
    table.add_row("schema version", cache.CACHE_SCHEMA_VERSION)
    table.add_row("entries", cache.entry_count())
    table.add_row("total KiB", round(to_kib(cache.total_bytes()), 1))
    table.add_row("max MiB", "unbounded" if cap is None else round(to_mib(cap), 1))
    for name in ("hits", "misses", "stores", "evictions"):
        table.add_row(f"{name} (this process)", counters[name])
    print(table.render())
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    """Load-generate against a daemon and write ``BENCH_serve.json``.

    Exits non-zero if any request failed or any served payload differed
    from the direct in-process computation (byte-identity check).
    """
    from .serve import loadgen

    models = tuple(args.models.split(",")) if args.models else loadgen.DEFAULT_MODELS
    glb_kb = tuple(_parse_glb_list(args.glb)) if args.glb else loadgen.DEFAULT_GLB_KB
    for model in models:  # a request the daemon would reject is bad input here
        for size in glb_kb:
            _canonical_request("simulate", {"model": model, "glb_kb": size})
    report = loadgen.bench_serve(
        clients=args.clients,
        requests=args.requests,
        seed=args.seed,
        url=args.url,
        jobs=args.jobs,
        models=models,
        glb_kb=glb_kb,
        verify=not args.no_verify,
        out=args.out,
    )
    latency = report.latency_summary()
    table = Table(
        title=f"repro bench serve (clients={report.clients}, seed={report.seed})",
        headers=["Metric", "Value"],
    )
    table.add_row("url", report.url)
    table.add_row("requests", report.total)
    table.add_row("ok / errors", f"{report.ok_count} / {report.error_count}")
    table.add_row("cache hit-rate", round(report.hit_rate, 3))
    table.add_row("byte-identical", report.byte_identical)
    table.add_row("latency p50 (s)", round(latency["p50"], 4))
    table.add_row("latency p99 (s)", round(latency["p99"], 4))
    table.add_row("latency mean (s)", round(latency["mean"], 4))
    table.add_row("throughput (req/s)", round(report.throughput_rps, 2))
    print(table.render())
    if args.out:
        print(f"wrote {args.out}")
    return 0 if (report.error_count == 0 and report.byte_identical) else 1


def _int_at_least(floor: int) -> Callable[[str], int]:
    """An argparse ``type`` accepting integers no smaller than ``floor``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return integer


def _add_objective_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--objective", choices=[o.value for o in Objective], default=PlanRequest.objective
    )


def _model_command(
    sub: Any,
    name: str,
    func: Callable[[argparse.Namespace], int],
    help: str,
    *,
    objective: bool = False,
    all_models: bool = False,
) -> argparse.ArgumentParser:
    """A subcommand taking a model and the accelerator flags, defaults from
    :class:`PlanRequest`; ``all_models`` adds ``--all`` and makes the model
    optional."""
    p: argparse.ArgumentParser = sub.add_parser(name, help=help)
    if all_models:
        p.add_argument("model", nargs="?", help="zoo model or JSON path")
        p.add_argument("--all", action="store_true", help="all six paper networks")
    else:
        p.add_argument("model", help="zoo model (case-insensitive) or JSON path")
    for flag, field, kind, text in (
        ("--glb", "glb_kb", int, "GLB size in kB (default %(default)s)"),
        ("--width", "data_width_bits", int, "data width in bits"),
        ("--ops", "ops_per_cycle", int, "operations per cycle"),
        ("--bandwidth", "dram_bandwidth_elems_per_cycle", float, "DRAM elements per cycle"),
    ):
        p.add_argument(
            flag, dest=field, metavar=flag[2:].upper(), type=kind,
            default=getattr(PlanRequest, field), help=text,
        )
    if objective:
        _add_objective_arg(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(func=cmd_models)

    _model_command(sub, "inspect", cmd_inspect, "per-layer shapes and footprints")

    p = _model_command(sub, "plan", cmd_plan, "produce an execution plan", objective=True)
    p.add_argument("--scheme", default=PlanRequest.scheme, help="het, hom or hom(<family>)")
    p.add_argument("--interlayer", action="store_true", help="enable inter-layer reuse")
    p.add_argument("--export", metavar="FILE", help="write the plan JSON here")

    p = _model_command(
        sub, "explain", cmd_explain, "why each layer got its policy (decision audit trail)",
        objective=True,
    )
    p.add_argument("--scheme", default=PlanRequest.scheme, help="het, hom or hom(<family>)")
    p.add_argument("--interlayer", action="store_true", help="enable inter-layer reuse")
    p.add_argument("--layer", metavar="NAME", help="show only this layer")
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json emits the full audit payload)",
    )

    p = _model_command(sub, "evaluate", cmd_evaluate, "all policy candidates for one layer")
    p.add_argument("layer", help="layer name (see `inspect`)")

    _model_command(sub, "baseline", cmd_baseline, "simulate the separate-buffer baselines")
    _model_command(sub, "compare", cmd_compare, "plan vs the three baselines", objective=True)

    p = sub.add_parser("sweep", help="GLB design-space sweep")
    p.add_argument("model")
    p.add_argument("--glb-list", metavar="KB,KB,...", help="sizes in kB")
    _add_objective_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = _model_command(sub, "layout", cmd_layout, "GLB address map of a plan", objective=True)
    p.add_argument("--interlayer", action="store_true")

    p = _model_command(sub, "trace", cmd_trace, "baseline DRAM address trace for a layer")
    p.add_argument("layer")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--max-records", type=int, default=2_000_000)

    _model_command(sub, "bounds", cmd_bounds, "plan vs communication lower bound", objective=True)
    p = _model_command(sub, "pareto", cmd_pareto, "accesses-vs-latency frontier")
    p.add_argument("--points", type=_int_at_least(2), default=11)

    p = _model_command(
        sub, "verify", cmd_verify, "statically verify plans (V0xx diagnostics)",
        objective=True, all_models=True,
    )
    p.add_argument("--glb-list", metavar="KB,KB,...", help="sizes in kB")
    p.add_argument(
        "--scheme",
        default=PlanRequest.scheme,
        help='het (also verifies het+il), hom, or "hom(<family>)"',
    )
    p.add_argument("--list-codes", action="store_true", help="print the catalog")
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json uses the shared repro-diagnostics/1 schema)",
    )

    p = sub.add_parser("lint", help="domain static analysis (R0xx diagnostics)")
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help=(
            "output format (json uses the shared repro-diagnostics/1 "
            "schema; sarif emits SARIF 2.1.0 for code-scanning UIs)"
        ),
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not only errors (the CI gate)",
    )
    p.add_argument(
        "--max-seconds",
        type=float,
        metavar="N",
        help="fail when analysis wall time exceeds N seconds (the CI budget)",
    )
    p.add_argument(
        "--show-silenced",
        action="store_true",
        help="also list suppressed findings",
    )
    p.add_argument("--list-codes", action="store_true", help="print the rule catalog")
    p.set_defaults(func=cmd_lint)

    p = _model_command(
        sub, "dram", cmd_dram, "banked-DRAM mapping-policy sweep", objective=True, all_models=True
    )
    p.add_argument(
        "--mappings",
        metavar="NAME,NAME,...",
        help="mapping policies to sweep (default: all)",
    )

    add_experiment_arguments(sub.add_parser("experiments", help="regenerate paper artifacts"))

    p = sub.add_parser("serve", help="planning-as-a-service HTTP daemon")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8077, help="TCP port (0 = ephemeral)")
    p.add_argument(
        "--jobs", "-j", type=int, default=0, metavar="N",
        help="worker processes (default 0 = execute in request threads)",
    )
    p.add_argument(
        "--cache-max-mb", type=_int_at_least(1), metavar="MB",
        help="LRU-evict the shared plan cache above this size",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("cache", help="inspect or manage the shared plan cache")
    p.add_argument("action", choices=("stats", "clear", "prune"))
    p.add_argument(
        "--max-mb", type=_int_at_least(0), metavar="MB",
        help="prune target size (required for 'prune')",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("bench", help="performance benchmarks")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser("serve", help="seeded load generator for the daemon")
    b.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    b.add_argument("--requests", type=int, default=24, help="total requests to send")
    b.add_argument("--seed", type=int, default=0, help="traffic-mix seed")
    b.add_argument(
        "--url", help="target an already-running daemon (default: boot one in-process)"
    )
    b.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for the in-process daemon",
    )
    b.add_argument("--models", metavar="A,B", help="comma-separated zoo model names")
    b.add_argument("--glb", metavar="KB,KB", help="comma-separated GLB sizes in kB")
    b.add_argument(
        "--no-verify", action="store_true",
        help="skip the byte-identity check against in-process planning",
    )
    b.add_argument(
        "--out", default="BENCH_serve.json", metavar="FILE",
        help="perf record path (default BENCH_serve.json)",
    )
    b.set_defaults(func=cmd_bench_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point, and the one boundary where bad input becomes exit 2."""
    args = build_parser().parse_args(argv)
    try:
        status: int = args.func(args)
    except ProtocolError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
