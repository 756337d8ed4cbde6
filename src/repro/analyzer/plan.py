"""Execution plans: the analyzer's output (paper Fig. 4).

A :class:`LayerAssignment` binds one layer to the policy evaluation the
analyzer chose for it, possibly adjusted for inter-layer reuse (§5.4).  An
:class:`ExecutionPlan` is the per-layer sequence plus aggregate metrics —
the quantities plotted in Figs. 5–11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..arch.spec import AcceleratorSpec
from ..estimators.evaluate import PolicyEvaluation
from ..estimators.latency import schedule_latency
from ..nn.layer import LayerSpec
from ..nn.model import Model
from ..obs.audit import DecisionTrail, LayerDecision
from ..policies.base import LayerSchedule, StepGroup
from .objectives import Objective


def transformed_schedule(
    schedule: LayerSchedule, receives: bool, donates: bool
) -> LayerSchedule:
    """Apply inter-layer reuse to a schedule.

    ``receives``: the ifmap is already resident (donated by the previous
    layer), so all ifmap loads disappear.  ``donates``: the ofmap stays
    resident for the next layer, so all ofmap stores disappear.
    """
    if not receives and not donates:
        return schedule
    groups = tuple(
        StepGroup(
            count=g.count,
            ifmap=0 if receives else g.ifmap,
            filters=g.filters,
            macs=g.macs,
            store=0 if donates else g.store,
        )
        for g in schedule.groups
    )
    return LayerSchedule(
        groups=groups,
        resident_ifmap=0 if receives else schedule.resident_ifmap,
        resident_filters=schedule.resident_filters,
    )


def required_memory_elems(
    evaluation: PolicyEvaluation, receives: bool, donates: bool
) -> int:
    """GLB elements the assignment needs, inter-layer adjustments included.

    A received ifmap sits resident at its *unpadded* full size (it is the
    previous layer's ofmap); a donated ofmap stays resident at full size.
    Neither is double-buffered, so the Eq. (2) prefetch factor applies only
    to the streamed tiles.
    """
    plan = evaluation.plan
    factor = 2 if plan.prefetch else 1
    ifmap_term = plan.layer.ifmap_elems if receives else factor * plan.tiles.ifmap
    filter_term = factor * plan.tiles.filters
    ofmap_term = plan.layer.ofmap_elems if donates else factor * plan.tiles.ofmap
    return ifmap_term + filter_term + ofmap_term


@dataclass(frozen=True)
class LayerAssignment:
    """One layer's chosen policy with inter-layer-adjusted metrics."""

    index: int
    layer: LayerSpec
    evaluation: PolicyEvaluation
    receives: bool = False
    donates: bool = False
    accesses_bytes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    latency_cycles: float = 0.0
    memory_bytes: int = 0

    @property
    def label(self) -> str:
        return self.evaluation.label

    @property
    def policy_name(self) -> str:
        return self.evaluation.policy_name

    @property
    def prefetch(self) -> bool:
        return self.evaluation.prefetch


def make_assignment(
    index: int,
    layer: LayerSpec,
    evaluation: PolicyEvaluation,
    spec: AcceleratorSpec,
    receives: bool = False,
    donates: bool = False,
) -> LayerAssignment:
    """Bind the model's ``layer`` to the evaluation chosen for it, with
    metrics recomputed under inter-layer reuse.

    ``evaluation`` is planned on the layer's shape and shared by every
    layer of that shape (:func:`~repro.estimators.evaluate_layers`), so
    ``evaluation.plan.layer`` carries no name; the assignment is where
    the model's named layer comes back.
    """
    plan = evaluation.plan
    b = spec.bytes_per_elem
    if not receives and not donates:
        return LayerAssignment(
            index=index,
            layer=layer,
            evaluation=evaluation,
            accesses_bytes=evaluation.accesses_bytes,
            read_bytes=evaluation.read_bytes,
            write_bytes=evaluation.write_bytes,
            latency_cycles=evaluation.latency_cycles,
            memory_bytes=evaluation.memory_bytes,
        )
    traffic = plan.traffic
    reads = (0 if receives else traffic.ifmap_reads) + traffic.filter_reads + traffic.ofmap_spills
    writes = (0 if donates else traffic.ofmap_writes) + traffic.ofmap_spills
    schedule = transformed_schedule(plan.schedule, receives, donates)
    latency = schedule_latency(schedule, spec, plan.prefetch, layer=plan.layer)
    return LayerAssignment(
        index=index,
        layer=layer,
        evaluation=evaluation,
        receives=receives,
        donates=donates,
        accesses_bytes=(reads + writes) * b,
        read_bytes=reads * b,
        write_bytes=writes * b,
        latency_cycles=latency.total_cycles,
        memory_bytes=required_memory_elems(evaluation, receives, donates) * b,
    )


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete per-layer management scheme with aggregate metrics."""

    model: Model
    spec: AcceleratorSpec
    objective: Objective
    scheme: str  #: e.g. "het", "hom(p1)", "het+interlayer"
    assignments: tuple[LayerAssignment, ...]
    #: Decision audit trail recorded while planning (None for plans built
    #: outside the planners, e.g. hand-assembled in tests).  Excluded from
    #: equality/repr so audited and unaudited plans compare identically.
    audit: DecisionTrail | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.assignments) != len(self.model.layers):
            raise ValueError(
                f"{self.scheme}: {len(self.assignments)} assignments for "
                f"{len(self.model.layers)} layers"
            )

    def __iter__(self) -> Iterator[LayerAssignment]:
        return iter(self.assignments)

    def explain(self) -> DecisionTrail:
        """The decision audit trail behind this plan.

        Planner-built plans carry the full trail (every candidate per
        layer with its accept/reject reason).  For plans without one —
        hand-assembled, or built outside the planners (the Pareto sweep's
        weighted plans) — a minimal trail is synthesized from the
        assignments: one chosen row per layer, no rejected candidates.
        """
        if self.audit is not None:
            return self.audit
        reason = "reconstructed from assignment (no audit recorded)"
        layers = tuple(
            LayerDecision(
                index=a.index,
                layer=a.layer.name,
                rows=(
                    (
                        a.label, a.policy_name, a.prefetch, True, True, reason,
                        a.memory_bytes, a.accesses_bytes, a.latency_cycles,
                    ),
                ),
            )
            for a in self.assignments
        )
        return DecisionTrail(
            scheme=self.scheme,
            objective=self.objective.value,
            glb_bytes=self.spec.glb_bytes,
            layers=layers,
            notes=("synthesized: plan carried no recorded audit trail",),
        )

    # Aggregate metrics ------------------------------------------------

    @property
    def total_accesses_bytes(self) -> int:
        return sum(a.accesses_bytes for a in self.assignments)

    @property
    def total_read_bytes(self) -> int:
        return sum(a.read_bytes for a in self.assignments)

    @property
    def total_write_bytes(self) -> int:
        return sum(a.write_bytes for a in self.assignments)

    @property
    def total_latency_cycles(self) -> float:
        return sum(a.latency_cycles for a in self.assignments)

    @property
    def policies_used(self) -> tuple[str, ...]:
        """Distinct policy labels in use, sorted (Table 4 contents)."""
        return tuple(sorted({a.label for a in self.assignments}))

    @property
    def policy_families_used(self) -> tuple[str, ...]:
        """Distinct policy families (prefetch-agnostic), sorted."""
        return tuple(sorted({a.policy_name for a in self.assignments}))

    @property
    def prefetch_coverage(self) -> float:
        """Fraction of layers running a +p policy (Fig. 10 coverage)."""
        return sum(1 for a in self.assignments if a.prefetch) / len(self.assignments)

    @property
    def interlayer_pairs_possible(self) -> int:
        """Producer→consumer pairs in the model (Fig. 11 denominator)."""
        return sum(
            1 for i in range(len(self.model.layers) - 1) if self.model.feeds_next(i)
        )

    @property
    def interlayer_pairs_applied(self) -> int:
        """Pairs where the plan actually keeps the ofmap on-chip."""
        return sum(1 for a in self.assignments if a.donates)

    @property
    def interlayer_coverage(self) -> float:
        """Fraction of possible pairs exploited (Fig. 11 percentages)."""
        possible = self.interlayer_pairs_possible
        return self.interlayer_pairs_applied / possible if possible else 0.0

    @property
    def max_memory_bytes(self) -> int:
        """Largest per-layer GLB residency the plan ever needs."""
        return max(a.memory_bytes for a in self.assignments)
