"""Candidate-level invariants: one policy instantiation on one layer.

These checks prove a :class:`~repro.policies.base.CandidatePlan` internally
consistent *without running the simulator*: the declared traffic must be
exactly what the streaming schedule implies, the schedule must perform the
layer's analytic MAC count, the ifmap load multiplicity must match the
paper's policy table, and the Eq. (1)/(2) footprint must fit the budget
the plan was produced for.

Every check appends into a :class:`~repro.verify.diagnostics
.DiagnosticCollector`; the public entry point is
:func:`repro.verify.verifier.verify_candidate`.
"""

from __future__ import annotations

from ..arch.units import ceil_div
from ..policies.base import CandidatePlan, Policy
from .diagnostics import DiagnosticCollector

#: Policy families whose dense-layer plans transfer the ifmap exactly once.
SINGLE_PASS_FAMILIES = frozenset({"intra", "p1", "p2", "p3"})

#: Families whose dense-layer plans re-stream the ifmap ⌈F#/n⌉ times.
BLOCKED_FAMILIES = frozenset({"p4", "p5"})


def expected_ifmap_multiplicity(plan: CandidatePlan) -> int | None:
    """Paper-table ifmap load multiplicity of a plan, if exactly known.

    Returns ``None`` for the tiled fallback, whose multiplicity depends on
    the searched tile shape (only a ≥1-pass lower bound applies there).
    """
    if plan.policy_name in SINGLE_PASS_FAMILIES:
        return 1
    if plan.policy_name in BLOCKED_FAMILIES:
        if plan.layer.kind.is_depthwise:
            return 1  # channel blocking never re-streams (paper §3.2)
        if plan.block_size is None or plan.block_size <= 0:
            return None  # V008 reports the missing block size instead
        return ceil_div(plan.layer.num_filters, plan.block_size)
    return None


def check_candidate(
    out: DiagnosticCollector,
    plan: CandidatePlan,
    budget_elems: int,
    *,
    layer_index: int | None = None,
    layer_name: str | None = None,
) -> None:
    """Run every candidate-level invariant on ``plan`` against ``budget_elems``.

    ``layer_name`` names the diagnostics when the plan's own layer is a
    nameless shape (:attr:`~repro.nn.layer.LayerSpec.shape`).
    """
    layer = plan.layer
    schedule = plan.schedule
    traffic = plan.traffic
    where = {
        "layer_index": layer_index,
        "layer_name": layer.name if layer_name is None else layer_name,
        "policy": plan.label,
    }

    # V003 — Eq. (1)/(2): the (possibly doubled) tile footprint fits.
    out.check(
        plan.memory_elems <= budget_elems,
        "V003",
        "tile footprint exceeds the GLB element budget",
        expected=budget_elems,
        actual=plan.memory_elems,
        **where,
    )

    # V004/V005/V006 — traffic conservation: declared totals equal the
    # schedule-implied sums.  Spilled partial ofmaps are stored and later
    # re-loaded, so spills appear on the store side; no current policy
    # represents spill refills as schedule loads (ofmap_spills is zero for
    # every shipped policy), so the load side compares without them.
    out.check(
        traffic.ifmap_reads == schedule.total_ifmap_load,
        "V004",
        "declared ifmap reads differ from the schedule's ifmap loads",
        expected=schedule.total_ifmap_load,
        actual=traffic.ifmap_reads,
        **where,
    )
    out.check(
        traffic.filter_reads == schedule.total_filter_load,
        "V005",
        "declared filter reads differ from the schedule's filter loads",
        expected=schedule.total_filter_load,
        actual=traffic.filter_reads,
        **where,
    )
    out.check(
        traffic.ofmap_writes + traffic.ofmap_spills == schedule.total_store,
        "V006",
        "declared ofmap writes (+spills) differ from the schedule's stores",
        expected=schedule.total_store,
        actual=traffic.ofmap_writes + traffic.ofmap_spills,
        **where,
    )

    # V007 — MAC conservation across the step groups.
    out.check(
        schedule.total_macs == layer.macs,
        "V007",
        "schedule MACs differ from the layer's analytic MAC count",
        expected=layer.macs,
        actual=schedule.total_macs,
        **where,
    )

    # V008 — ifmap load multiplicity per the paper's policy table.
    one_pass = Policy.ifmap_pass_elems(layer)
    multiplicity = expected_ifmap_multiplicity(plan)
    if plan.policy_name in BLOCKED_FAMILIES and not layer.kind.is_depthwise:
        out.check(
            plan.block_size is not None and plan.block_size > 0,
            "V008",
            "memory-dependent policy without a positive filter-block size",
            expected=">= 1",
            actual=str(plan.block_size),
            **where,
        )
    if multiplicity is not None:
        out.check(
            traffic.ifmap_reads == multiplicity * one_pass,
            "V008",
            f"ifmap load multiplicity is not the policy-table {multiplicity}x",
            expected=multiplicity * one_pass,
            actual=traffic.ifmap_reads,
            **where,
        )
    elif plan.policy_name == "tiled":
        # Tile-shape dependent, but never below one full pass over the
        # touched ifmap (halos only ever add traffic).
        out.check(
            traffic.ifmap_reads >= one_pass,
            "V008",
            "tiled plan transfers less than one full ifmap pass",
            expected=f">= {one_pass}",
            actual=traffic.ifmap_reads,
            **where,
        )

    # V010 — negative quantities (defends against hand-built plans that
    # bypassed the dataclass validators).
    for label, value in (
        ("tiles.ifmap", plan.tiles.ifmap),
        ("tiles.filters", plan.tiles.filters),
        ("tiles.ofmap", plan.tiles.ofmap),
        ("traffic.ifmap_reads", traffic.ifmap_reads),
        ("traffic.filter_reads", traffic.filter_reads),
        ("traffic.ofmap_writes", traffic.ofmap_writes),
        ("traffic.ofmap_spills", traffic.ofmap_spills),
        ("schedule.resident_ifmap", schedule.resident_ifmap),
        ("schedule.resident_filters", schedule.resident_filters),
    ):
        out.check(
            value >= 0,
            "V010",
            f"{label} is negative",
            expected=">= 0",
            actual=value,
            **where,
        )

    # V011 — no step stores more than the declared ofmap tile holds.
    for i, group in enumerate(schedule.groups):
        out.check(
            group.store <= plan.tiles.ofmap,
            "V011",
            f"step group {i} stores more than the ofmap tile",
            expected=plan.tiles.ofmap,
            actual=group.store,
            **where,
        )
