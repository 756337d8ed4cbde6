"""Benchmarks for the remaining figures: 1, 3, 6, 7, 9, 10, 11."""

from __future__ import annotations

import pytest

from repro.experiments import fig1, fig3, fig6, fig7, fig9, fig10, fig11



def test_fig1_motivation(fresh, capsys):
    cases = fig1.run()
    with capsys.disabled():
        print("\n" + fig1.to_table(cases).render())
    by = {c.case: c for c in cases}
    assert by["A"].separate_fit["filter"] < 0.05  # filters strand in case A
    assert by["B"].separate_fit["ifmap"] < 0.20  # feature maps strand in B
    assert by["A"].glb_feasible and by["B"].glb_feasible


def test_fig3_resnet18_breakdown(fresh, capsys):
    rows = fig3.run()
    with capsys.disabled():
        print("\n" + fig3.to_table(rows).render())
    # Early layers feature-map-heavy, late layers filter-heavy (paper §3.3).
    assert rows[1].ifmap_kib + rows[1].ofmap_kib > rows[1].filter_kib
    assert rows[-2].filter_kib > rows[-2].ifmap_kib + rows[-2].ofmap_kib


def test_fig6_het_breakdown(fresh, capsys):
    rows = fig6.run()
    with capsys.disabled():
        print("\n" + fig6.to_table(rows).render())
    assert len(rows) == 21
    assert all(r.total_kib <= 64.0 + 1e-9 for r in rows)
    # The allocations change policy across the network (heterogeneity).
    assert len({r.label for r in rows}) >= 3


def test_fig7_data_width_sweep(fresh, capsys):
    cells = fig7.run()
    with capsys.disabled():
        print("\n" + fig7.to_table(cells).render())
    by = {(c.data_width_bits, c.glb_kb): c for c in cells}
    # Het's edge over Hom grows with data width at the smallest buffer and
    # fades with larger buffers (paper Fig. 7's trend).
    assert by[(32, 64)].het_benefit_pct >= by[(8, 64)].het_benefit_pct
    assert by[(32, 1024)].het_benefit_pct <= by[(32, 64)].het_benefit_pct
    for c in cells:
        assert c.het_benefit_pct >= -1e-9


def test_fig9_objective_tradeoff(fresh, capsys):
    rows = fig9.run()
    with capsys.disabled():
        print("\n" + fig9.to_table(rows).render())
    for r in rows:
        assert r.latency_benefit_pct >= 0.0
        assert r.accesses_benefit_pct <= 1e-9
    # At least one model pays a double-digit access penalty for latency
    # (paper: MobileNet −33%).
    assert min(r.accesses_benefit_pct for r in rows) <= -5.0


def test_fig10_prefetching(fresh, capsys):
    rows = fig10.run()
    with capsys.disabled():
        print("\n" + fig10.to_table(rows).render())
    assert all(r.latency_benefit_pct > 5.0 for r in rows)  # paper: ~15%
    assert rows[0].accesses_benefit_pct <= 0.0  # penalty at 64 kB
    assert all(r.prefetch_coverage >= 0.9 for r in rows)  # paper: 93–100%


def test_fig11_interlayer_reuse(fresh, capsys):
    rows = fig11.run()
    geo_acc, geo_lat = fig11.geomean_benefits(glb_kb=1024)
    with capsys.disabled():
        print("\n" + fig11.to_table(rows).render())
        print(f"all-model geomean @1MB: accesses {geo_acc:+.1f}%, latency {geo_lat:+.1f}%")
    benefits = [r.accesses_benefit_pct for r in rows]
    assert benefits == sorted(benefits)  # grows with buffer size
    assert rows[-1].accesses_benefit_pct == pytest.approx(70.0, abs=10.0)  # paper: 70%
    assert rows[-1].coverage >= 0.9  # paper: 98%
    assert geo_acc == pytest.approx(47.0, abs=15.0)  # paper: 47%
