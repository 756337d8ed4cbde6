"""DRAM mapping-policy sweep (extension, not a paper artifact).

For every zoo network: plan heterogeneously with the flat model, then
replay the plan's off-chip traffic through the banked-DRAM backend under
each data-mapping policy (``row_major`` baseline, ``bank_interleaved``,
DRMap-style ``reuse_aware``).  The table reports transfer cycles, row-hit
rate, activations and off-chip energy per mapping, plus the cycle overhead
versus the idealized flat-bandwidth bound — making visible what the
paper's flat 16-elements/cycle constant abstracts away and how much of it
address mapping recovers.

:func:`sweep` prices any named plans and :func:`to_table` renders the
cells; :func:`run` (the artifact) and ``repro dram`` are two plan
sources feeding that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..analyzer.plan import ExecutionPlan
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

    @property
    def overhead_pct(self) -> float:
        """Transfer-cycle overhead vs the idealized flat-bandwidth bound."""
        if self.stats.ideal_cycles == 0:
            return 0.0
        return 100.0 * (self.stats.cycles / self.stats.ideal_cycles - 1.0)


def sweep(
    named_plans: Iterable[tuple[str, ExecutionPlan]], dram: DramSpec, mappings: Sequence[str]
) -> list[DramSweepCell]:
    """Price each named plan under every mapping policy, one lowering per plan."""
    return [
        DramSweepCell(model=name, mapping=result.mapping, stats=result.total)
        for name, plan in named_plans
        for result in simulate_plan_dram(plan, dram, mappings)
    ]


def run(
    models: tuple[str, ...] | None = None,
    glb_kb: int = SWEEP_GLB_KB,
    dram: DramSpec = DEFAULT_DDR4_SPEC,
    mappings: Sequence[str] = MAPPING_NAMES,
) -> list[DramSweepCell]:
    """Sweep every mapping policy over every model's heterogeneous plan.

    Plans come from :func:`het_plan`, so plans another artifact already
    built are reused.
    """
    names = models or all_model_names()
    return sweep(((name, het_plan(name, glb_kb)) for name in names), dram, mappings)


def to_table(cells: list[DramSweepCell], title: str) -> Table:
    """Render the sweep's rows as a report table.

    The cells do not carry their GLB size, so the caller titles the table.
    """
    table = Table(
        title=title,
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
