"""Plan-level invariants: capacity, metric consistency and donation chains.

These checks operate on a whole :class:`~repro.analyzer.plan.ExecutionPlan`
— the quantities aggregate counting *can* see but nothing re-derives after
planning: per-layer GLB capacity including inter-layer resident regions
(V001/V002), the assignment metrics the reports and experiments consume
(V009/V010), the structural integrity of the plan (V017), and the
legality of the §5.4 donation chain (V012/V013).
"""

from __future__ import annotations

import math

from ..analyzer.plan import (
    ExecutionPlan,
    LayerAssignment,
    required_memory_elems,
    transformed_schedule,
)
from ..estimators.latency import schedule_latency
from .diagnostics import DiagnosticCollector

#: Relative tolerance for recomputed floating-point latencies.  The
#: verifier re-runs the exact estimator code path, so agreement is
#: normally bit-exact; the tolerance only absorbs plans reconstructed
#: from serialized (rounded) exports.
LATENCY_REL_TOL = 1e-9


def check_assignment_capacity(
    out: DiagnosticCollector, assignment: LayerAssignment, plan: ExecutionPlan
) -> None:
    """V001/V002: the layer's residency fits the GLB and is reported truly."""
    spec = plan.spec
    required = required_memory_elems(
        assignment.evaluation, assignment.receives, assignment.donates
    )
    required_bytes = required * spec.bytes_per_elem
    where = {
        "layer_index": assignment.index,
        "layer_name": assignment.layer.name,
        "policy": assignment.label,
    }
    out.check(
        required_bytes <= spec.glb_bytes,
        "V001",
        "residency (tiles + prefetch factor + resident regions) exceeds the GLB",
        expected=spec.glb_bytes,
        actual=required_bytes,
        **where,
    )
    out.check(
        assignment.memory_bytes == required_bytes,
        "V002",
        "stored memory_bytes differs from the recomputed residency",
        expected=required_bytes,
        actual=assignment.memory_bytes,
        **where,
    )


def check_assignment_metrics(
    out: DiagnosticCollector, assignment: LayerAssignment, plan: ExecutionPlan
) -> None:
    """V009/V010: byte and latency metrics equal their traffic-implied values."""
    spec = plan.spec
    b = spec.bytes_per_elem
    candidate = assignment.evaluation.plan
    traffic = candidate.traffic
    where = {
        "layer_index": assignment.index,
        "layer_name": assignment.layer.name,
        "policy": assignment.label,
    }

    reads = (
        (0 if assignment.receives else traffic.ifmap_reads)
        + traffic.filter_reads
        + traffic.ofmap_spills
    )
    writes = (0 if assignment.donates else traffic.ofmap_writes) + traffic.ofmap_spills
    out.check(
        assignment.read_bytes == reads * b,
        "V009",
        "read_bytes differs from the donation-adjusted traffic reads",
        expected=reads * b,
        actual=assignment.read_bytes,
        **where,
    )
    out.check(
        assignment.write_bytes == writes * b,
        "V009",
        "write_bytes differs from the donation-adjusted traffic writes",
        expected=writes * b,
        actual=assignment.write_bytes,
        **where,
    )
    out.check(
        assignment.accesses_bytes == (reads + writes) * b,
        "V009",
        "accesses_bytes is not reads + writes",
        expected=(reads + writes) * b,
        actual=assignment.accesses_bytes,
        **where,
    )

    schedule = transformed_schedule(
        candidate.schedule, assignment.receives, assignment.donates
    )
    latency = schedule_latency(
        schedule, spec, candidate.prefetch, layer=candidate.layer
    ).total_cycles
    out.check(
        math.isclose(
            assignment.latency_cycles, latency, rel_tol=LATENCY_REL_TOL, abs_tol=1e-9
        ),
        "V009",
        "latency_cycles differs from the recomputed schedule latency",
        expected=latency,
        actual=assignment.latency_cycles,
        **where,
    )

    for label, value in (
        ("accesses_bytes", assignment.accesses_bytes),
        ("read_bytes", assignment.read_bytes),
        ("write_bytes", assignment.write_bytes),
        ("latency_cycles", assignment.latency_cycles),
        ("memory_bytes", assignment.memory_bytes),
    ):
        out.check(
            value >= 0,
            "V010",
            f"{label} is negative",
            expected=">= 0",
            actual=value,
            **where,
        )


def check_plan_structure(out: DiagnosticCollector, plan: ExecutionPlan) -> None:
    """V017: one assignment per layer, in order, referencing its own layer
    and a candidate of that layer's shape."""
    out.check(
        len(plan.assignments) == len(plan.model.layers),
        "V017",
        "assignment count differs from the model's layer count",
        expected=len(plan.model.layers),
        actual=len(plan.assignments),
    )
    for position, assignment in enumerate(plan.assignments):
        ok_index = out.check(
            assignment.index == position,
            "V017",
            "assignment index differs from its position in the plan",
            layer_name=assignment.layer.name,
            policy=assignment.label,
            expected=position,
            actual=assignment.index,
        )
        if ok_index and position < len(plan.model.layers):
            out.check(
                assignment.layer == plan.model.layers[position],
                "V017",
                "assignment references a layer other than the model's",
                layer_index=position,
                layer_name=plan.model.layers[position].name,
                policy=assignment.label,
            )
        # Candidates are planned and memoized per shape, so a candidate
        # of another shape must never reach the assignment.
        out.check(
            assignment.evaluation.plan.layer.shape == assignment.layer.shape,
            "V017",
            "assignment's candidate was planned for a layer of another shape",
            layer_index=position,
            layer_name=assignment.layer.name,
            policy=assignment.label,
        )


def check_interlayer_chain(out: DiagnosticCollector, plan: ExecutionPlan) -> None:
    """V012/V013: donation flags form a legal producer→consumer chain."""
    model = plan.model
    assignments = plan.assignments
    n = len(assignments)
    for i, assignment in enumerate(assignments):
        where = {
            "layer_index": i,
            "layer_name": assignment.layer.name,
            "policy": assignment.label,
        }
        if assignment.receives:
            out.check(
                i > 0 and assignments[i - 1].donates,
                "V012",
                "receives a donated ifmap but the previous layer does not donate",
                **where,
            )
        if i > 0 and assignments[i - 1].donates:
            out.check(
                assignment.receives,
                "V012",
                "previous layer donates but this layer does not receive",
                **where,
            )
        if assignment.donates:
            out.check(
                i < n - 1 and model.feeds_next(i),
                "V013",
                "donates on an edge that is not a producer→consumer pair",
                **where,
            )
            out.check(
                assignment.evaluation.plan.traffic.ofmap_spills == 0,
                "V013",
                "donor spills partial ofmaps off-chip, so its ofmap never "
                "completes on-chip",
                expected=0,
                actual=assignment.evaluation.plan.traffic.ofmap_spills,
                **where,
            )
            if i < n - 1:
                consumer = assignments[i + 1].layer
                out.check(
                    assignment.layer.ofmap_elems == consumer.ifmap_elems,
                    "V013",
                    "donated ofmap size differs from the consumer's ifmap",
                    expected=consumer.ifmap_elems,
                    actual=assignment.layer.ofmap_elems,
                    **where,
                )
