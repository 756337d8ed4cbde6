"""Benchmark regenerating Figure 8: latency per scheme.

Headline claims asserted: the latency-optimized schemes beat the
accesses-optimized ones, which beat the zero-stall baseline for the
depth-wise-dominated models; the baseline bar is buffer-independent.
"""

from __future__ import annotations

from repro.experiments import fig8



def test_fig8_latency_grid(fresh, capsys):
    cells = fig8.run()
    with capsys.disabled():
        print("\n" + fig8.to_table(cells).render())

    by = {(c.model, c.glb_kb): c for c in cells}

    for cell in cells:
        # Objective ordering within a scheme family.
        assert cell.het_l_cycles <= cell.het_a_cycles + 1e-6
        assert cell.hom_l_cycles <= cell.hom_a_cycles + 1e-6
        # Het never loses to Hom on its own objective.
        assert cell.het_l_cycles <= cell.hom_l_cycles + 1e-6

    # Baseline latency is one bar per model (buffer-independent).
    for model in {c.model for c in cells}:
        baselines = {by[(model, g)].baseline_cycles for g in (64, 128, 256, 512, 1024)}
        assert len(baselines) == 1

    # Depth-wise-heavy models see the large reductions (paper: up to 56%
    # for MnasNet); filter-heavy GoogLeNet/ResNet18 see the smallest.
    assert by[("MnasNet", 1024)].reduction_vs_baseline(
        by[("MnasNet", 1024)].het_l_cycles
    ) >= 20.0
    assert by[("GoogLeNet", 64)].reduction_vs_baseline(
        by[("GoogLeNet", 64)].het_l_cycles
    ) <= by[("MnasNet", 64)].reduction_vs_baseline(by[("MnasNet", 64)].het_l_cycles)
