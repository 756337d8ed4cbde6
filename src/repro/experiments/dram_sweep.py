"""DRAM mapping-policy sweep (extension, not a paper artifact).

For every zoo network: plan heterogeneously with the flat model, then
replay the plan's off-chip traffic through the banked-DRAM backend under
each data-mapping policy (``row_major`` baseline, ``bank_interleaved``,
DRMap-style ``reuse_aware``).  The table reports transfer cycles, row-hit
rate, activations and off-chip energy per mapping, plus the cycle overhead
versus the idealized flat-bandwidth bound — making visible what the
paper's flat 16-elements/cycle constant abstracts away and how much of it
address mapping recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..dram.backend import DramStats
from ..dram.mapping import MAPPING_NAMES
from ..dram.planstats import simulate_plan_dram
from ..dram.spec import DEFAULT_DDR4_SPEC, DramSpec
from ..report.table import Table
from .common import all_model_names, het_plan

#: GLB size used for the sweep (the paper's reference 256 kB point).
SWEEP_GLB_KB = 256


@dataclass(frozen=True)
class DramSweepCell:
    """One (model, mapping) point of the sweep."""

    model: str
    mapping: str
    stats: DramStats
    glb_kb: int = SWEEP_GLB_KB

    @property
    def overhead_pct(self) -> float:
        """Transfer-cycle overhead vs the idealized flat-bandwidth bound."""
        if self.stats.ideal_cycles == 0:
            return 0.0
        return 100.0 * (self.stats.cycles / self.stats.ideal_cycles - 1.0)


def run(
    models: tuple[str, ...] | None = None,
    glb_kb: int | Sequence[int] = SWEEP_GLB_KB,
    dram: DramSpec = DEFAULT_DDR4_SPEC,
    mappings: tuple[str, ...] = MAPPING_NAMES,
) -> list[DramSweepCell]:
    """Sweep every mapping policy over every model's heterogeneous plan.

    ``glb_kb`` may be a ladder of sizes; each size's plan comes from
    :func:`het_plan`, so plans another artifact already built are reused.
    """
    ladder = (glb_kb,) if isinstance(glb_kb, int) else tuple(glb_kb)
    cells = []
    for name in models or all_model_names():
        for size in ladder:
            plan = het_plan(name, size)
            for mapping in mappings:
                result = simulate_plan_dram(plan, dram, mapping)
                cells.append(
                    DramSweepCell(
                        model=name, mapping=mapping, stats=result.total, glb_kb=size
                    )
                )
    return cells


def to_table(cells: list[DramSweepCell]) -> Table:
    """Render the sweep's rows as a report table."""
    table = Table(
        title=f"DRAM mapping sweep (Het_a @ {SWEEP_GLB_KB} kB, DDR4-like)",
        headers=[
            "Model",
            "Mapping",
            "cycles",
            "ideal",
            "overhead",
            "hit rate",
            "activations",
            "energy uJ",
        ],
    )
    for c in cells:
        table.add_row(
            c.model,
            c.mapping,
            int(c.stats.cycles),
            int(c.stats.ideal_cycles),
            f"{c.overhead_pct:.1f}%",
            f"{c.stats.row_hit_rate:.4f}",
            c.stats.activations,
            f"{c.stats.energy_pj / 1e6:.1f}",
        )
    return table


def best_mapping_per_model(cells: list[DramSweepCell]) -> dict[str, str]:
    """The lowest-cycle mapping of each model (ties to the earlier policy)."""
    best: dict[str, DramSweepCell] = {}
    for cell in cells:
        current = best.get(cell.model)
        if current is None or cell.stats.cycles < current.stats.cycles:
            best[cell.model] = cell
    return {model: cell.mapping for model, cell in best.items()}
