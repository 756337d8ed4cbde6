"""DRAM-backend invariants: V018/V019, run for every DRAM-backed plan.

When a plan's accelerator carries a banked :class:`~repro.dram.DramSpec`,
its latency and energy flow through the trace-driven backend, so the
verifier re-simulates every assignment's (donation-transformed) schedule,
all of them in one replay batch, and cross-checks the backend's output:

* **V018** — physics: simulated cycles may never beat the idealized
  flat-bandwidth bound ``total_bytes / peak_bytes_per_cycle`` (row-buffer
  conflicts only slow transfers down), equivalently delivered bandwidth
  never exceeds the device peak;
* **V019** — bookkeeping: bursts = hits + misses, one activation per row
  miss, and the byte totals match the schedule's load/store traffic.
"""

from __future__ import annotations

import math

from ..analyzer.plan import ExecutionPlan
from ..dram.planstats import plan_schedules
from ..dram.trace import simulate_schedules
from .diagnostics import DiagnosticCollector

#: Relative tolerance for the V018 cycle bound (pure float arithmetic on
#: both sides, so only accumulation order can make them differ).
DRAM_REL_TOL = 1e-9


def check_dram(out: DiagnosticCollector, plan: ExecutionPlan) -> None:
    """V018/V019: re-simulate each layer's DRAM traffic and cross-check it."""
    dram = plan.spec.dram
    if dram is None:
        return
    b = plan.spec.bytes_per_elem
    items = plan_schedules(plan)
    replayed = simulate_schedules(items, b, dram)
    for assignment, (schedule, _), stats in zip(plan.assignments, items, replayed):
        where = {
            "layer_index": assignment.index,
            "layer_name": assignment.layer.name,
            "policy": assignment.label,
        }

        ideal = stats.total_bytes / dram.peak_bytes_per_cycle
        out.check(
            stats.cycles >= ideal * (1.0 - DRAM_REL_TOL),
            "V018",
            "simulated DRAM cycles beat the flat peak-bandwidth bound",
            expected=f">= {ideal}",
            actual=stats.cycles,
            **where,
        )
        out.check(
            math.isclose(
                stats.ideal_cycles, ideal, rel_tol=DRAM_REL_TOL, abs_tol=1e-9
            ),
            "V018",
            "reported ideal_cycles differs from bytes / peak bandwidth",
            expected=ideal,
            actual=stats.ideal_cycles,
            **where,
        )
        if stats.total_bytes:
            out.check(
                stats.effective_bytes_per_cycle
                <= dram.peak_bytes_per_cycle * (1.0 + DRAM_REL_TOL),
                "V018",
                "effective bandwidth exceeds the device peak",
                expected=f"<= {dram.peak_bytes_per_cycle}",
                actual=stats.effective_bytes_per_cycle,
                **where,
            )

        out.check(
            stats.bursts == stats.row_hits + stats.row_misses,
            "V019",
            "bursts differ from row hits plus row misses",
            expected=stats.bursts,
            actual=stats.row_hits + stats.row_misses,
            **where,
        )
        out.check(
            stats.activations == stats.row_misses,
            "V019",
            "activation count differs from the row-miss count",
            expected=stats.row_misses,
            actual=stats.activations,
            **where,
        )
        out.check(
            stats.reads_bytes == schedule.total_load * b,
            "V019",
            "simulated read bytes differ from the schedule's load traffic",
            expected=schedule.total_load * b,
            actual=stats.reads_bytes,
            **where,
        )
        out.check(
            stats.writes_bytes == schedule.total_store * b,
            "V019",
            "simulated write bytes differ from the schedule's store traffic",
            expected=schedule.total_store * b,
            actual=stats.writes_bytes,
            **where,
        )
