"""Public entry points of the plan verifier.

* :func:`verify_candidate` — statically check one policy instantiation
  (a :class:`~repro.policies.base.CandidatePlan`) against a GLB budget;
* :func:`verify_plan` — statically check a complete
  :class:`~repro.analyzer.plan.ExecutionPlan` (capacity, traffic and MAC
  conservation, donation chain, address-level realizability);
* :func:`check_plan` — the raising variant of :func:`verify_plan`;
* :func:`verify_network` — plan-and-verify one model × spec × scheme
  combination, the unit of work behind ``repro verify``.

The verifier runs no simulation: every check is a closed-form recomputation
cross-checked against the plan's declared values, so a pass is a formal
consistency proof of the plan object itself (and a fail pinpoints the
violated invariant via its ``V0xx`` code).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyzer.objectives import Objective
from ..analyzer.plan import ExecutionPlan
from ..arch.spec import AcceleratorSpec
from ..nn.model import Model
from ..policies.base import CandidatePlan
from .diagnostics import DiagnosticCollector, VerificationReport
from .dram_checks import check_dram
from .invariants import check_candidate
from .layout_checks import check_layout
from .plan_checks import (
    check_assignment_capacity,
    check_assignment_metrics,
    check_interlayer_chain,
    check_plan_structure,
)


def verify_candidate(
    plan: CandidatePlan,
    spec_or_budget: AcceleratorSpec | int,
    *,
    layer_index: int | None = None,
) -> VerificationReport:
    """Statically verify one candidate plan against a GLB budget.

    ``spec_or_budget`` is an :class:`~repro.arch.spec.AcceleratorSpec`
    (whose element budget is used) or a raw element budget.
    """
    budget = (
        spec_or_budget.glb_elems
        if isinstance(spec_or_budget, AcceleratorSpec)
        else spec_or_budget
    )
    out = DiagnosticCollector(subject=f"{plan.layer.name}/{plan.label}")
    check_candidate(out, plan, budget, layer_index=layer_index)
    return out.report()


def verify_plan(
    plan: ExecutionPlan, *, check_layouts: bool = True
) -> VerificationReport:
    """Statically verify a complete execution plan.

    Runs the candidate-level invariants on every assignment's underlying
    plan, then the plan-level capacity/metric/chain checks, then (unless
    ``check_layouts=False``) the address-level realizability checks.
    Plans whose spec carries a banked DRAM model additionally get the
    ``V018``/``V019`` backend cross-checks.
    """
    out = DiagnosticCollector(
        subject=f"{plan.model.name}/{plan.scheme} @ {plan.spec.glb_bytes} B"
    )
    check_plan_structure(out, plan)
    for assignment in plan.assignments:
        check_candidate(
            out,
            assignment.evaluation.plan,
            plan.spec.glb_elems,
            layer_index=assignment.index,
            layer_name=assignment.layer.name,
        )
        check_assignment_capacity(out, assignment, plan)
        check_assignment_metrics(out, assignment, plan)
    check_interlayer_chain(out, plan)
    if check_layouts:
        check_layout(out, plan)
    if plan.spec.dram is not None:
        check_dram(out, plan)
    return out.report()


def check_plan(plan: ExecutionPlan) -> VerificationReport:
    """Verify a plan and raise :class:`PlanVerificationError` on failure.

    Returns the (passing) report so callers can still inspect the check
    count.
    """
    report = verify_plan(plan)
    report.raise_if_failed()
    return report


@dataclass(frozen=True)
class NetworkVerification:
    """Outcome of planning-and-verifying one (model, spec, scheme) cell."""

    model_name: str
    glb_bytes: int
    scheme: str
    objective: Objective
    report: VerificationReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def verify_network(
    model: Model,
    spec: AcceleratorSpec,
    *,
    scheme: str = "het",
    objective: Objective = Objective.ACCESSES,
    interlayer: bool = False,
    interlayer_mode: str = "opportunistic",
) -> NetworkVerification:
    """Plan one model on one accelerator and verify the resulting plan."""
    # Imported here: the manager imports the planner, which offers the
    # verify-on-plan debug mode backed by this module.
    from ..manager import MemoryManager

    plan = MemoryManager(spec).plan(
        model,
        objective,
        scheme=scheme,
        interlayer=interlayer,
        interlayer_mode=interlayer_mode,
    )
    return NetworkVerification(
        model_name=model.name,
        glb_bytes=spec.glb_bytes,
        scheme=plan.scheme,
        objective=objective,
        report=verify_plan(plan),
    )
