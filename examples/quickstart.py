"""Quickstart: manage a 64 kB scratchpad for ResNet18.

Reproduces the paper's headline experiment in a few lines: plan ResNet18
on the reference accelerator (16×16 PEs, 512 OPs/cycle, 8-bit data,
16 elements/cycle DRAM bandwidth) with a 64 kB unified global buffer,
statically verify the plan against the invariant catalog (the same checks
``repro verify`` runs), and compare against the SCALE-Sim-style
separate-buffer baselines.

Run:  python examples/quickstart.py
"""

from repro import AcceleratorSpec, Objective
from repro.arch import kib, to_mib
from repro.manager import MemoryManager
from repro.nn.zoo import get_model
from repro.verify import verify_plan


def main() -> None:
    spec = AcceleratorSpec(glb_bytes=kib(64))
    manager = MemoryManager(spec)
    model = get_model("ResNet18")

    comparison = manager.compare_with_baseline(model, Objective.ACCESSES)
    plan = comparison.plan

    print(f"model: {model.name} ({model.num_layers} layers, "
          f"{model.total_macs / 1e9:.2f} GMACs)")
    print(f"GLB:   {spec.glb_bytes // 1024} kB unified scratchpad\n")

    print("per-layer policy assignment (heterogeneous scheme):")
    for assignment in plan:
        tiles = assignment.evaluation.plan.tiles
        print(
            f"  {assignment.layer.name:10s} {assignment.label:8s} "
            f"mem={assignment.memory_bytes / 1024:6.1f} kB "
            f"(i/f/o tiles: {tiles.ifmap}/{tiles.filters}/{tiles.ofmap} elems)"
        )

    # Static plan verification (docs/verification.md): capacity, traffic
    # and MAC conservation, donation chains, GLB address-map realizability.
    # `repro.verify.check_plan(plan)` would raise instead of reporting.
    report = verify_plan(plan)
    print(f"\nstatic verification: {report.render()}")
    report.raise_if_failed()

    print("\noff-chip accesses:")
    for label, result in comparison.baselines.items():
        print(f"  baseline {label}: {to_mib(result.total_traffic_bytes):7.1f} MB")
    print(f"  proposed Het    : {to_mib(plan.total_accesses_bytes):7.1f} MB")
    print(
        f"\nreduction vs best baseline: "
        f"{comparison.accesses_reduction_pct:.1f}% "
        f"(paper reports 79.8% for ResNet18 at 64 kB)"
    )

    # The numbers above price DRAM at the paper's flat 16 elements/cycle.
    # Re-time one layer against the banked row-buffer model (docs/dram.md)
    # to see what that abstraction hides.
    from repro import DEFAULT_DDR4_SPEC
    from repro.estimators import schedule_latency

    first = plan.assignments[0]
    schedule = first.evaluation.plan.schedule
    from dataclasses import replace

    flat_lat = schedule_latency(schedule, spec, first.prefetch, layer=first.layer)
    print(f"\nDRAM timing for {first.layer.name} ({first.label}):")
    print(f"  flat 16 B/cycle model        : {flat_lat.total_cycles:12.1f} cycles")
    for mapping in ("row_major", "bank_interleaved"):
        banked = spec.with_dram(replace(DEFAULT_DDR4_SPEC, mapping=mapping))
        lat = schedule_latency(schedule, banked, first.prefetch, layer=first.layer)
        overhead = (lat.total_cycles / flat_lat.total_cycles - 1) * 100
        print(f"  banked, {mapping:20s} : {lat.total_cycles:12.1f} cycles "
              f"(+{overhead:.2f}% from row misses)")


if __name__ == "__main__":
    main()
