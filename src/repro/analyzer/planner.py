"""Plan construction: homogeneous and heterogeneous management schemes.

The paper compares (§5.1):

* ``Hom`` — the *homogeneous* scheme: every layer runs the same policy
  family (falling back to the tile search only when that family cannot fit
  a layer at all), with the family chosen to minimize the objective;
* ``Het`` — the *heterogeneous* scheme: Algorithm 1 picks the best policy
  per layer.

Prefetch variants: within a scheme each layer may use the policy with or
without prefetching (Table 4 writes "policy 1 (+p)" when both occur);
``allow_prefetch=False`` reproduces the prefetch-disabled reference of
Fig. 10.  ``interlayer=True`` enables the §5.4 chain DP.

Every planner accepts ``verify=True`` (a debug mode): the emitted plan is
statically checked against the :mod:`repro.verify` invariant catalog and a
:class:`~repro.verify.PlanVerificationError` is raised if any invariant is
violated — turning planner bugs into hard failures at the source.

Telemetry: planning runs inside tracer spans (one per plan, one per layer
for ``Het``) and every plan carries a :class:`~repro.obs.audit.DecisionTrail`
recording each candidate policy with its capacity check and accept/reject
reason — surfaced by ``repro explain`` and ``ExecutionPlan.explain()``.
Both are pure bookkeeping: plans are bit-identical with tracing on or off.
"""

from __future__ import annotations

from ..arch.spec import AcceleratorSpec
from ..estimators.evaluate import (
    DecisionSlot,
    PolicyAttempt,
    PolicyEvaluation,
    evaluate_layer,
)
from ..nn.layer import LayerSpec
from ..nn.model import Model
from ..obs import get_tracer, metrics_registry
from ..obs.audit import CandidateRow, TrailBuilder
from ..policies.base import Policy
from ..policies.registry import NAMED_POLICIES
from .algorithm1 import select_policy
from .interlayer import apply_opportunistic_interlayer, plan_chain_with_interlayer
from .objectives import Objective
from .plan import ExecutionPlan, LayerAssignment, make_assignment


def candidate_evaluations(
    model: Model,
    spec: AcceleratorSpec,
    policies: tuple[Policy, ...] = NAMED_POLICIES,
    allow_prefetch: bool = True,
    always_fallback: bool = True,
) -> list[list[PolicyEvaluation]]:
    """Feasible policy evaluations for every layer of the model."""
    return [
        evaluate_layer(
            layer,
            spec,
            policies=policies,
            allow_prefetch=allow_prefetch,
            always_fallback=always_fallback,
        )
        for layer in model.layers
    ]


def _maybe_verify(plan: ExecutionPlan, verify: bool) -> ExecutionPlan:
    """Run the static verifier over a fresh plan when requested."""
    if verify:
        # Imported lazily: repro.verify consumes this module's output types.
        from ..verify import check_plan

        check_plan(plan)
    return plan


def _infeasible_row(attempt: PolicyAttempt) -> CandidateRow:
    """Audit row for a (policy, prefetch) try that fit no tiling."""
    reason = (
        "no tiling fits the GLB with double buffering (Eq. (2))"
        if attempt.prefetch
        else "no tiling fits the GLB budget (Eq. (1))"
    )
    return (
        attempt.label, attempt.policy_name, attempt.prefetch,
        False, False, reason, None, None, None,
    )


def _candidate_rows(
    attempts: list[PolicyAttempt], selected: list[CandidateRow]
) -> list[CandidateRow]:
    """Merge infeasible attempts with Algorithm 1's rows, in try order."""
    by_label = {row[0]: row for row in selected}
    return [
        by_label[attempt.label] if attempt.feasible else _infeasible_row(attempt)
        for attempt in attempts
        if not attempt.feasible or attempt.label in by_label
    ]


def _reconcile_chosen(
    trail: TrailBuilder, assignments: list[LayerAssignment]
) -> None:
    """Point each layer's chosen flag at the *final* assignment.

    The inter-layer DP may override Algorithm 1's per-layer pick; the
    trail keeps the original winner with an override reason.
    """
    chosen_by_index = {
        decision.index: decision.chosen_row for decision in trail.layers
    }
    for assignment in assignments:
        chosen = chosen_by_index.get(assignment.index)
        if chosen is None or chosen[0] != assignment.label:
            trail.rechoose(
                assignment.index,
                assignment.label,
                "selected by inter-layer DP (co-optimized with ofmap donations)",
            )


def _plan_layer(
    trail: TrailBuilder,
    index: int,
    layer: LayerSpec,
    spec: AcceleratorSpec,
    objective: Objective,
    policies: tuple[Policy, ...],
    allow_prefetch: bool,
    always_fallback: bool,
) -> tuple[list[PolicyEvaluation], LayerAssignment | None]:
    """Algorithm 1 for one layer, shared by ``Het`` and ``Hom``.

    Evaluates the layer, records its trail rows and returns its feasible
    evaluations with its assignment (None when nothing fits).  The pick
    and its rows are memoized in the evaluation's decision slot
    (:data:`~repro.estimators.evaluate.DecisionSlot`), so
    :func:`select_policy` runs only for a candidate set and objective it
    has not decided before; the trail then references the memo's rows.
    """
    attempts: list[PolicyAttempt] = []
    slots: list[DecisionSlot] = []
    evaluations = evaluate_layer(
        layer,
        spec,
        policies=policies,
        allow_prefetch=allow_prefetch,
        always_fallback=always_fallback,
        attempts=attempts,
        decisions=slots,
    )
    if not evaluations:
        return evaluations, None
    slot = slots[0]
    decision = slot.get(objective)
    if decision is None:
        selected: list[CandidateRow] = []
        choice = select_policy(evaluations, objective, audit=selected)
        winner = next(j for j, ev in enumerate(evaluations) if ev is choice)
        decision = (winner, tuple(_candidate_rows(attempts, selected)))
        slot[objective] = decision
    winner, rows = decision
    trail.add_layer(index, layer.name, rows)
    return evaluations, make_assignment(index, layer, evaluations[winner], spec)


def plan_heterogeneous(
    model: Model,
    spec: AcceleratorSpec,
    objective: Objective = Objective.ACCESSES,
    *,
    allow_prefetch: bool = True,
    interlayer: bool = False,
    interlayer_mode: str = "opportunistic",
    verify: bool = False,
) -> ExecutionPlan:
    """The ``Het`` scheme: best policy per layer (Algorithm 1).

    ``interlayer=True`` enables §5.4 ofmap donation between consecutive
    layers.  ``interlayer_mode`` selects the paper-faithful
    ``"opportunistic"`` pass (policies first, donations where they fit) or
    our ``"joint"`` DP extension that co-optimizes both decisions.
    """
    tracer = get_tracer()
    trail = TrailBuilder(
        scheme="het", objective=objective.value, glb_bytes=spec.glb_bytes
    )
    with tracer.start(
        "plan_heterogeneous",
        model=model.name,
        glb_bytes=spec.glb_bytes,
        objective=objective.value,
    ) as plan_span:
        candidates: list[list[PolicyEvaluation]] = []
        assignments: list[LayerAssignment] = []
        empty: list[str] = []
        for i, layer in enumerate(model.layers):
            with tracer.start("plan_layer", layer=layer.name) as layer_span:
                evaluations, assignment = _plan_layer(
                    trail, i, layer, spec, objective,
                    NAMED_POLICIES, allow_prefetch, always_fallback=True,
                )
                layer_span.set_attr("candidates_count", len(evaluations))
            candidates.append(evaluations)
            if assignment is None:
                empty.append(layer.name)
            else:
                assignments.append(assignment)
        if empty:
            raise ValueError(
                f"{model.name}: no feasible policy for layers {empty} at "
                f"GLB={spec.glb_bytes} bytes"
            )
        scheme = "het"
        if interlayer:
            if interlayer_mode == "opportunistic":
                assignments = apply_opportunistic_interlayer(model, spec, assignments)
                scheme = "het+il"
            elif interlayer_mode == "joint":
                assignments = plan_chain_with_interlayer(
                    model, spec, objective, candidates
                )
                scheme = "het+il(joint)"
            else:
                raise ValueError(f"unknown interlayer_mode {interlayer_mode!r}")
            _reconcile_chosen(trail, assignments)
            donated = sum(1 for a in assignments if a.donates)
            trail.note(
                f"inter-layer pass ({interlayer_mode}): "
                f"{donated} ofmap donation(s) applied"
            )
        trail.scheme = scheme
        plan_span.set_attr("scheme", scheme)
        registry = metrics_registry()
        registry.counter("planner_layers_count").add(len(model.layers))
        registry.counter("planner_candidates_count").add(
            sum(len(c) for c in candidates)
        )
    return _maybe_verify(
        ExecutionPlan(
            model=model,
            spec=spec,
            objective=objective,
            scheme=scheme,
            assignments=tuple(assignments),
            audit=trail.build(),
        ),
        verify,
    )


def plan_homogeneous(
    model: Model,
    spec: AcceleratorSpec,
    family: str,
    objective: Objective = Objective.ACCESSES,
    *,
    allow_prefetch: bool = True,
    verify: bool = False,
) -> ExecutionPlan | None:
    """The homogeneous scheme for one policy family (e.g. ``"p1"``).

    Layers the family cannot fit fall back to the tile search, as
    Algorithm 1 prescribes for infeasible layers.  Returns ``None`` when
    even the fallback fails somewhere (practically: never for paper-sized
    buffers).
    """
    family_policies = tuple(p for p in NAMED_POLICIES if p.name == family)
    if not family_policies:
        raise KeyError(f"unknown policy family {family!r}")
    scheme = f"hom({family})"
    trail = TrailBuilder(
        scheme=scheme, objective=objective.value, glb_bytes=spec.glb_bytes
    )
    assignments = []
    with get_tracer().start("plan_homogeneous", model=model.name, family=family):
        for i, layer in enumerate(model.layers):
            _, assignment = _plan_layer(
                trail, i, layer, spec, objective,
                family_policies, allow_prefetch, always_fallback=False,
            )
            if assignment is None:
                return None
            assignments.append(assignment)
    return _maybe_verify(
        ExecutionPlan(
            model=model,
            spec=spec,
            objective=objective,
            scheme=scheme,
            assignments=tuple(assignments),
            audit=trail.build(),
        ),
        verify,
    )


def best_homogeneous(
    model: Model,
    spec: AcceleratorSpec,
    objective: Objective = Objective.ACCESSES,
    *,
    allow_prefetch: bool = True,
    verify: bool = False,
) -> ExecutionPlan:
    """The ``Hom`` scheme: the best single-policy plan for the objective."""
    best: ExecutionPlan | None = None
    best_key: tuple[float, float] | None = None
    for policy in NAMED_POLICIES:
        plan = plan_homogeneous(
            model, spec, policy.name, objective, allow_prefetch=allow_prefetch
        )
        if plan is None:
            continue
        key = objective.key(plan.total_accesses_bytes, plan.total_latency_cycles)
        if best_key is None or key < best_key:
            best, best_key = plan, key
    if best is None:
        raise ValueError(f"{model.name}: no homogeneous scheme is feasible")
    return _maybe_verify(best, verify)
