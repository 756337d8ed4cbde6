"""Benchmarks for the extension studies (energy, ablations, resolution,
Pareto, bounds)."""

from __future__ import annotations

from repro.analyzer import pareto_frontier
from repro.arch import AcceleratorSpec, kib
from repro.experiments import ablations, energy, resolution
from repro.nn.zoo import get_model


def test_energy_comparison(fresh, capsys):
    cells = energy.run()
    with capsys.disabled():
        print("\n" + energy.to_table(cells).render())
    by = {(c.model, c.glb_kb): c for c in cells}
    # Access reductions translate to energy reductions at small buffers.
    assert by[("ResNet18", 64)].reduction_pct > 30.0
    for c in cells:
        assert 0.0 < c.het_dram_share < 1.0


def test_ablation_interlayer_modes(fresh, capsys):
    rows = ablations.interlayer_modes()
    with capsys.disabled():
        print("\n" + ablations.interlayer_modes_table(rows).render())
    assert all(r.joint_extra_benefit_pct >= -1e-9 for r in rows)
    # The DP finds extra donations somewhere in the sweep.
    assert any(r.joint_extra_benefit_pct > 1.0 for r in rows)


def test_ablation_fallback_participation(fresh, capsys):
    rows = ablations.fallback_participation()
    with capsys.disabled():
        print("\n" + ablations.fallback_participation_table(rows).render())
    assert all(r.search_benefit_pct >= -1e-9 for r in rows)


def test_ablation_baseline_dataflows(fresh, capsys):
    rows = ablations.baseline_dataflows()
    with capsys.disabled():
        print("\n" + ablations.baseline_dataflows_table(rows).render())
    assert all(min(r.os_cycles, r.ws_cycles, r.is_cycles) > 0 for r in rows)


def test_resolution_sweep(fresh, capsys):
    rows = resolution.run()
    with capsys.disabled():
        print("\n" + resolution.to_table(rows).render())
    accesses = [r.accesses_bytes for r in rows]
    assert accesses == sorted(accesses)


def test_pareto_frontier(fresh, capsys):
    spec = AcceleratorSpec(glb_bytes=kib(64))
    model = get_model("MobileNet")
    frontier = pareto_frontier(model, spec, 11)
    with capsys.disabled():
        print(f"\nPareto frontier ({len(frontier)} points):")
        for p in frontier:
            print(
                f"  alpha={p.alpha:.2f} acc={p.accesses_bytes / 2**20:6.2f}MB "
                f"lat={p.latency_cycles:10.0f}"
            )
    assert len(frontier) >= 3


def test_bounds_optimality_gap(fresh, capsys):
    from repro.experiments import bounds

    rows = bounds.run()
    with capsys.disabled():
        print("\n" + bounds.to_table(rows).render())
    # The extension headline: Het sits essentially on the layer-by-layer
    # communication lower bound at every configuration.
    for row in rows:
        assert row.gap_pct >= -1e-9
        assert row.gap_pct <= 10.0
    large = [r for r in rows if r.glb_kb == 1024]
    assert all(r.gap_pct <= 1.0 for r in large)
