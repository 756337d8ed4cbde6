"""GLB design-space sweep (``repro sweep``).

The paper evaluates five GLB sizes at fixed bandwidth and PE count;
:func:`glb_sweep` plans any list of sizes and :func:`sweep_table`
renders the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..analyzer import ExecutionPlan, Objective, plan_heterogeneous
from ..arch.spec import AcceleratorSpec
from ..arch.units import to_kib, to_mib
from ..nn.model import Model
from ..report.table import Table, series_table


@dataclass(frozen=True)
class SweepPoint:
    """One point of a 1-D design-space sweep."""

    value: float  #: the swept parameter's value
    accesses_bytes: int
    latency_cycles: float
    max_memory_bytes: int
    policies: tuple[str, ...]


def _point(value: float, plan: ExecutionPlan) -> SweepPoint:
    return SweepPoint(
        value=value,
        accesses_bytes=plan.total_accesses_bytes,
        latency_cycles=plan.total_latency_cycles,
        max_memory_bytes=plan.max_memory_bytes,
        policies=plan.policy_families_used,
    )


def glb_sweep(
    model: Model,
    sizes_bytes: Sequence[int],
    objective: Objective = Objective.ACCESSES,
    base_spec: AcceleratorSpec | None = None,
    **plan_kwargs,
) -> list[SweepPoint]:
    """Sweep the GLB capacity.

    Each size is planned by :func:`~repro.analyzer.plan_heterogeneous`;
    its shape records evaluate each candidate once per capacity
    signature, so sizes after the first re-plan cheaply.
    """
    spec = base_spec or AcceleratorSpec()
    return [
        _point(
            size,
            plan_heterogeneous(model, spec.with_glb(size), objective, **plan_kwargs),
        )
        for size in sizes_bytes
    ]


def sweep_table(title: str, parameter: str, points: list[SweepPoint]) -> Table:
    """Render a sweep as a table."""
    return series_table(
        title,
        parameter,
        [p.value for p in points],
        {
            "accesses (MB)": [round(to_mib(p.accesses_bytes), 2) for p in points],
            "latency (cycles)": [int(p.latency_cycles) for p in points],
            "peak mem (kB)": [round(to_kib(p.max_memory_bytes), 1) for p in points],
        },
    )
