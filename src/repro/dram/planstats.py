"""Plan-level DRAM simulation: price a whole execution plan's traffic.

Runs the trace-driven backend over every layer of an
:class:`~repro.analyzer.plan.ExecutionPlan` (donation-transformed, so
inter-layer reuse removes exactly the traffic the analyzer removed) and
aggregates row-buffer statistics, transfer cycles and energy per layer
and for the plan.  A plan is lowered to request streams once and
replayed once per mapping policy it is priced under.  This is the engine
behind the ``repro dram`` CLI sweep, the
:mod:`repro.experiments.dram_sweep` artifact and the energy model's
banked-DRAM split; the verifier's DRAM codes replay
:func:`plan_schedules` themselves.

Analyzer types are imported lazily: the estimator chain imports
:mod:`repro.dram` while the analyzer package is still initializing, so
this module must not import it at module load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..nn.layer import LayerSpec
from ..policies.base import LayerSchedule
from .backend import DramStats, combine_stats, simulate_streams
from .mapping import MappingPolicy
from .spec import DramSpec
from .trace import lower_schedules, resolve_mapping

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
    mappings: Sequence[MappingPolicy | str] | None = None,
) -> list[PlanDramResult]:
    """Price every layer of a plan through the banked-DRAM backend.

    ``dram`` defaults to the plan's accelerator DRAM spec and must be
    given when the plan was produced with the flat model.  Returns one
    result per entry of ``mappings`` (default: the device's configured
    mapping alone).  The plan is lowered to request streams once; each
    mapping replays all its layers in one batch.
    """
    if isinstance(mappings, str):
        raise TypeError(f"mappings must be a sequence of mappings, not a str; pass [{mappings!r}]")
    device = dram if dram is not None else plan.spec.dram
    if device is None:
        raise ValueError(
            "plan has no DramSpec; pass one explicitly or plan with "
            "AcceleratorSpec(dram=...)"
        )
    requests, regions = lower_schedules(plan_schedules(plan), plan.spec.bytes_per_elem, device)
    results = []
    for mapping in (device.mapping,) if mappings is None else mappings:
        policy = resolve_mapping(device, mapping)
        stats = simulate_streams(requests, regions, device, policy)
        layers = tuple(
            LayerDramResult(name=assignment.layer.name, policy=assignment.label, stats=entry)
            for assignment, entry in zip(plan.assignments, stats)
        )
        results.append(PlanDramResult(policy.name, layers, combine_stats(stats)))
    return results
