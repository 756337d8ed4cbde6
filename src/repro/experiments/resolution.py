"""Input-resolution sweep (extension).

The paper fixes 224×224 inputs; edge deployments commonly trade input
resolution for cost.  This experiment sweeps the input size for one
model at a fixed GLB and reports how the heterogeneous scheme's traffic,
latency and policy mix respond — feature-map footprints scale with
resolution while filters do not, so the policy mix shifts toward the
filter-resident policies (P1/P4) at low resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyzer import Objective
from ..manager import MemoryManager
from ..nn.zoo import get_model
from ..report.table import Table
from .common import spec_for

#: Typical edge deployment resolutions.
DEFAULT_RESOLUTIONS = (128, 160, 192, 224, 256)


@dataclass(frozen=True)
class ResolutionRow:
    model: str
    input_size: int
    glb_kb: int
    total_macs: int
    accesses_bytes: int
    latency_cycles: float
    policies: tuple[str, ...]


def run(
    model_name: str = "MobileNetV2",
    resolutions: tuple[int, ...] = DEFAULT_RESOLUTIONS,
    glb_kb: int = 64,
    objective: Objective = Objective.ACCESSES,
) -> list[ResolutionRow]:
    """Sweep the input resolution at a fixed GLB size."""
    rows = []
    for size in resolutions:
        model = get_model(model_name, input_size=size)
        plan = MemoryManager(spec_for(glb_kb)).plan_cached(model, objective)
        rows.append(
            ResolutionRow(
                model=model_name,
                input_size=size,
                glb_kb=glb_kb,
                total_macs=model.total_macs,
                accesses_bytes=plan.total_accesses_bytes,
                latency_cycles=plan.total_latency_cycles,
                policies=plan.policy_families_used,
            )
        )
    return rows


def to_table(rows: list[ResolutionRow]) -> Table:
    """Render the experiment's rows as a report table."""
    table = Table(
        title=f"Resolution sweep: {rows[0].model} @ {rows[0].glb_kb} kB (Het)",
        headers=["Input", "GMACs", "Accesses MB", "Latency (cyc)", "Policies"],
    )
    for r in rows:
        table.add_row(
            f"{r.input_size}x{r.input_size}",
            round(r.total_macs / 1e9, 3),
            round(r.accesses_bytes / 2**20, 2),
            int(r.latency_cycles),
            ", ".join(r.policies),
        )
    return table
