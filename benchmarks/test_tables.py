"""Benchmarks regenerating the paper's tables (2, 3, 4).

Run with ``pytest benchmarks/``.  Each test prints the regenerated
artifact so the paper-vs-measured comparison is visible in the output,
and asserts the headline agreement.
"""

from __future__ import annotations

import pytest

from repro.experiments import table2, table3, table4



def test_table2_model_characteristics(fresh, capsys):
    rows = table2.run()
    with capsys.disabled():
        print("\n" + table2.to_table(rows).render())
    assert all(r.num_layers == r.paper_num_layers for r in rows)


def test_table3_policy_memory_requirements(fresh, capsys):
    rows = table3.run()
    with capsys.disabled():
        print("\n" + table3.to_table(rows).render())
    for row in rows:
        assert row.max_kib == pytest.approx(row.paper_kib, rel=0.02)


def test_table4_policies_used_at_64kb(fresh, capsys):
    rows = table4.run()
    with capsys.disabled():
        print("\n" + table4.to_table(rows).render())
    for row in rows:
        # The single-transfer workhorse policies appear for every network.
        assert "policy 1" in row.policies
        assert "policy 2" in row.policies
        assert "policy 3" in row.policies
