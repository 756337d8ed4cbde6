"""Figure 8: inference latency per scheme.

Per model and GLB size: the zero-stall SCALE-Sim baseline (one bar — its
latency does not depend on the buffer partition) against the proposed
schemes optimized for accesses (``Hom_a``/``Het_a``) and for latency
(``Hom_l``/``Het_l``), in cycles.

Paper headlines: up to 56 % latency reduction (MnasNet, 1 MB);
``Hom_l`` beats ``Hom_a`` by up to 23 % (MobileNet, 256 kB) and ``Het_l``
beats ``Het_a`` by up to 19 % (MobileNet, 64 kB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analyzer import Objective
from ..report.table import Table
from .common import GLB_SIZES_KB, all_model_names, baseline_results, het_plan, hom_plan

if TYPE_CHECKING:
    from ..report.chart import BarChart


@dataclass(frozen=True)
class Fig8Cell:
    model: str
    glb_kb: int
    baseline_cycles: float
    hom_a_cycles: float
    het_a_cycles: float
    hom_l_cycles: float
    het_l_cycles: float

    def reduction_vs_baseline(self, cycles: float) -> float:
        """Percent latency reduction of ``cycles`` vs the baseline."""
        return 100.0 * (1.0 - cycles / self.baseline_cycles)


def run(
    models: tuple[str, ...] | None = None,
    glb_sizes_kb: tuple[int, ...] = GLB_SIZES_KB,
) -> list[Fig8Cell]:
    """Regenerate the Figure 8 latency grid."""
    cells = []
    for name in models or all_model_names():
        # Baseline latency is partition-independent (zero-stall compute).
        baseline = next(iter(baseline_results(name, glb_sizes_kb[0]).values()))
        for glb_kb in glb_sizes_kb:
            cells.append(
                Fig8Cell(
                    model=name,
                    glb_kb=glb_kb,
                    baseline_cycles=baseline.total_cycles,
                    hom_a_cycles=hom_plan(name, glb_kb, Objective.ACCESSES).total_latency_cycles,
                    het_a_cycles=het_plan(name, glb_kb, Objective.ACCESSES).total_latency_cycles,
                    hom_l_cycles=hom_plan(name, glb_kb, Objective.LATENCY).total_latency_cycles,
                    het_l_cycles=het_plan(name, glb_kb, Objective.LATENCY).total_latency_cycles,
                )
            )
    return cells


def to_table(cells: list[Fig8Cell]) -> Table:
    """Render the experiment's rows as a report table."""
    table = Table(
        title="Figure 8: latency (cycles)",
        headers=[
            "Model",
            "GLB kB",
            "baseline",
            "Hom_a",
            "Het_a",
            "Hom_l",
            "Het_l",
            "Het_l vs base",
        ],
    )
    for c in cells:
        table.add_row(
            c.model,
            c.glb_kb,
            int(c.baseline_cycles),
            int(c.hom_a_cycles),
            int(c.het_a_cycles),
            int(c.hom_l_cycles),
            int(c.het_l_cycles),
            f"{c.reduction_vs_baseline(c.het_l_cycles):.1f}%",
        )
    return table


def to_chart(cells: list[Fig8Cell], glb_kb: int = 64) -> "BarChart":
    """Grouped bar chart of one GLB column (terminal rendering of Fig. 8)."""
    from ..report.chart import bar_chart

    subset = [c for c in cells if c.glb_kb == glb_kb]
    groups = [c.model for c in subset]
    series = {
        "baseline": [c.baseline_cycles for c in subset],
        "Hom_a": [c.hom_a_cycles for c in subset],
        "Het_a": [c.het_a_cycles for c in subset],
        "Hom_l": [c.hom_l_cycles for c in subset],
        "Het_l": [c.het_l_cycles for c in subset],
    }
    return bar_chart(f"Figure 8 @ {glb_kb} kB: latency (cycles)", groups, series)
