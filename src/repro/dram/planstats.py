"""Plan-level DRAM simulation: price a whole execution plan's traffic.

Runs the trace-driven backend over every layer of an
:class:`~repro.analyzer.plan.ExecutionPlan` (donation-transformed, so
inter-layer reuse removes exactly the traffic the analyzer removed) and
aggregates row-buffer statistics, transfer cycles and energy per layer
and for the plan.  This is the engine behind the ``repro dram`` CLI
sweep, the :mod:`repro.experiments.dram_sweep` artifact and the
verifier's DRAM codes.

Analyzer types are imported lazily: the estimator chain imports
:mod:`repro.dram` while the analyzer package is still initializing, so
this module must not import it at module load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..nn.layer import LayerSpec
from ..policies.base import LayerSchedule
from .backend import DramStats, combine_stats
from .mapping import MappingPolicy
from .spec import DramSpec
from .trace import simulate_schedules

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..analyzer.plan import ExecutionPlan


@dataclass(frozen=True)
class LayerDramResult:
    """DRAM statistics of one layer of a plan."""

    name: str
    policy: str
    stats: DramStats


@dataclass(frozen=True)
class PlanDramResult:
    """DRAM statistics of a whole plan under one mapping policy."""

    mapping: str
    layers: tuple[LayerDramResult, ...]
    total: DramStats

    @property
    def transfer_cycles(self) -> float:
        """Off-chip transfer cycles of the whole plan (layers sequential)."""
        return self.total.cycles

    @property
    def row_hit_rate(self) -> float:
        """Plan-wide fraction of bursts served from an open row."""
        return self.total.row_hit_rate


def plan_schedules(plan: "ExecutionPlan") -> list[tuple[LayerSchedule, LayerSpec]]:
    """Each layer's donation-transformed schedule with its layer, in plan order."""
    from ..analyzer.plan import transformed_schedule

    return [
        (
            transformed_schedule(
                assignment.evaluation.plan.schedule, assignment.receives, assignment.donates
            ),
            assignment.layer,
        )
        for assignment in plan.assignments
    ]


def simulate_plan_dram(
    plan: "ExecutionPlan",
    dram: DramSpec | None = None,
    mapping: MappingPolicy | str | None = None,
) -> PlanDramResult:
    """Price every layer of a plan through the banked-DRAM backend.

    ``dram`` defaults to the plan's accelerator DRAM spec and must be
    given when the plan was produced with the flat model.  ``mapping``
    overrides the device's configured mapping policy (the sweep calls
    this once per policy on the same plan).  All layers replay in one
    batch.
    """
    device = dram if dram is not None else plan.spec.dram
    if device is None:
        raise ValueError(
            "plan has no DramSpec; pass one explicitly or plan with "
            "AcceleratorSpec(dram=...)"
        )
    mapping_name = (
        device.mapping
        if mapping is None
        else (mapping if isinstance(mapping, str) else mapping.name)
    )
    layers = [
        LayerDramResult(name=assignment.layer.name, policy=assignment.label, stats=stats)
        for assignment, stats in zip(
            plan.assignments,
            simulate_schedules(
                plan_schedules(plan), plan.spec.bytes_per_elem, device, mapping
            ),
        )
    ]
    return PlanDramResult(
        mapping=mapping_name,
        layers=tuple(layers),
        total=combine_stats([entry.stats for entry in layers]),
    )
