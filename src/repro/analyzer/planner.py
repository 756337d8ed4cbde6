"""Plan construction: homogeneous and heterogeneous management schemes.

The paper compares (§5.1):

* ``Hom`` — the *homogeneous* scheme: every layer runs the same policy
  family (falling back to the tile search only when that family cannot fit
  a layer at all), with the family chosen to minimize the objective;
* ``Het`` — the *heterogeneous* scheme: Algorithm 1 picks the best policy
  per layer.

Both read ``Het``'s per-layer entry, which holds every candidate a ``Hom``
layer can pick: ``Hom`` decides every family in one layer walk and builds
only the winner's plan, and ``Het ≤ Hom`` holds by construction.  The
rescue-only ``het(named-only)`` plan (Algorithm 1 as written, where the
tile search only rescues layers no named policy fits) is the same
selection over all named families.

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
    Decision,
    LayerEntry,
    PolicyAttempt,
    PolicyEvaluation,
    evaluate_layers,
)
from ..nn.model import Model
from ..obs import get_tracer, metrics_registry
from ..obs.audit import CandidateRow, TrailBuilder
from ..policies.registry import NAMED_POLICIES
from .algorithm1 import select_policy
from .interlayer import apply_opportunistic_interlayer, plan_chain_with_interlayer
from .objectives import Objective
from .plan import ExecutionPlan, LayerAssignment, make_assignment

#: The policy families a ``Hom`` plan can run, in paper order.
FAMILIES = tuple(policy.name for policy in NAMED_POLICIES)
#: Every scheme :meth:`~repro.manager.MemoryManager.plan` accepts.
SCHEMES = ("het", "hom", *(f"hom({family})" for family in FAMILIES))


def _emit(
    model: Model, spec: AcceleratorSpec, objective: Objective,
    assignments: list[LayerAssignment], trail: TrailBuilder, verify: bool,
) -> ExecutionPlan:
    """The plan of the trail's scheme, statically verified when requested."""
    plan = ExecutionPlan(
        model=model, spec=spec, objective=objective, scheme=trail.scheme,
        assignments=tuple(assignments), audit=trail.build(),
    )
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


def _decide(
    entry: LayerEntry, objective: Objective, families: tuple[str, ...] | None = None
) -> Decision | None:
    """Algorithm 1 over a layer's ``Het`` entry; None when nothing fits.

    ``families=None`` decides over every try (``Het``); a tuple of
    families, over their tries plus, when none of them fits, the tile
    search's (``Hom(family)`` for one family, the rescue-only
    ``het(named-only)`` for all of them).  The decision is memoized in
    the entry's slot under the objective, or under ``(objective,
    families)``.
    """
    evaluations, attempts, slot = entry
    key = objective if families is None else (objective, families)
    decision = slot.get(key)
    if decision is not None:
        return decision
    tries, candidates = list(attempts), list(evaluations)
    if families is not None:
        tries = [a for a in attempts if a.policy_name in families]
        if not any(a.feasible for a in tries):
            tries += [a for a in attempts if a.fallback]
        labels = {a.label for a in tries}
        candidates = [ev for ev in evaluations if ev.label in labels]
    if not candidates:
        return None
    selected: list[CandidateRow] = []
    choice = select_policy(candidates, objective, audit=selected)
    by_label = {row[0]: row for row in selected}
    rows = tuple(by_label[a.label] if a.feasible else _infeasible_row(a) for a in tries)
    slot[key] = decision = (next(j for j, ev in enumerate(evaluations) if ev is choice), rows)
    return decision


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
        entries = evaluate_layers(model.layers, spec, allow_prefetch)
        assignments: list[LayerAssignment] = []
        empty: list[str] = []
        for i, (layer, entry) in enumerate(zip(model.layers, entries)):
            with tracer.start("plan_layer", layer=layer.name) as layer_span:
                decision = _decide(entry, objective)
                layer_span.set_attr("candidates_count", len(entry[0]))
            if decision is None:
                empty.append(layer.name)
            else:
                winner, rows = decision
                trail.add_layer(i, layer.name, rows)
                assignments.append(make_assignment(i, layer, entry[0][winner], spec))
        if empty:
            raise ValueError(
                f"{model.name}: no feasible policy for layers {empty} at "
                f"GLB={spec.glb_bytes} bytes"
            )
        if interlayer:
            if interlayer_mode == "opportunistic":
                assignments = apply_opportunistic_interlayer(model, spec, assignments)
                trail.scheme = "het+il"
            elif interlayer_mode == "joint":
                assignments = plan_chain_with_interlayer(
                    model, spec, objective, [entry[0] for entry in entries]
                )
                trail.scheme = "het+il(joint)"
            else:
                raise ValueError(f"unknown interlayer_mode {interlayer_mode!r}")
            _reconcile_chosen(trail, assignments)
            donated = sum(1 for a in assignments if a.donates)
            trail.note(
                f"inter-layer pass ({interlayer_mode}): "
                f"{donated} ofmap donation(s) applied"
            )
        plan_span.set_attr("scheme", trail.scheme)
        registry = metrics_registry()
        registry.counter("planner_layers_count").add(len(model.layers))
        registry.counter("planner_candidates_count").add(
            sum(len(entry[0]) for entry in entries)
        )
    return _emit(model, spec, objective, assignments, trail, verify)


def _plan_homogeneous(
    model: Model, spec: AcceleratorSpec, objective: Objective,
    groups: dict[str, tuple[str, ...]], allow_prefetch: bool, verify: bool,
) -> ExecutionPlan | None:
    """The best plan over ``groups`` (scheme label -> families) in one layer walk.

    Each layer's ``Het`` entry holds every candidate a layer restricted
    to some families can pick, so one walk decides every group
    (:func:`_decide`) and sums its totals; the ``ExecutionPlan`` and trail
    are built for the winning group only (the first listed on a tie).
    Returns None when no group fits every layer, even with the tile search.
    """
    picks: dict[str, list[tuple[PolicyEvaluation, tuple[CandidateRow, ...]]]] = {
        scheme: [] for scheme in groups
    }
    with get_tracer().start("plan_homogeneous", model=model.name) as span:
        for entry in evaluate_layers(model.layers, spec, allow_prefetch):
            for scheme in list(picks):
                decision = _decide(entry, objective, groups[scheme])
                if decision is None:
                    del picks[scheme]
                else:
                    picks[scheme].append((entry[0][decision[0]], decision[1]))
        if not picks:
            return None
        scheme = min(
            picks,
            key=lambda s: objective.key(
                sum(ev.accesses_bytes for ev, _ in picks[s]),
                sum(ev.latency_cycles for ev, _ in picks[s]),
            ),
        )
        trail = TrailBuilder(
            scheme=scheme, objective=objective.value, glb_bytes=spec.glb_bytes
        )
        span.set_attr("scheme", scheme)
        assignments = []
        for i, (layer, (evaluation, rows)) in enumerate(zip(model.layers, picks[scheme])):
            trail.add_layer(i, layer.name, rows)
            assignments.append(make_assignment(i, layer, evaluation, spec))
    return _emit(model, spec, objective, assignments, trail, verify)


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
    if family not in FAMILIES:
        raise KeyError(f"unknown policy family {family!r}")
    return _plan_homogeneous(
        model, spec, objective, {f"hom({family})": (family,)}, allow_prefetch, verify
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
    groups = {f"hom({family})": (family,) for family in FAMILIES}
    plan = _plan_homogeneous(model, spec, objective, groups, allow_prefetch, verify)
    if plan is None:
        raise ValueError(f"{model.name}: no homogeneous scheme is feasible")
    return plan


def plan_named_only(
    model: Model,
    spec: AcceleratorSpec,
    objective: Objective = Objective.ACCESSES,
    *,
    allow_prefetch: bool = True,
    verify: bool = False,
) -> ExecutionPlan:
    """``Het`` as Algorithm 1 is written (§3.3): the best named policy per
    layer, with the tile search only rescuing layers none of them fits."""
    groups = {"het(named-only)": FAMILIES}
    plan = _plan_homogeneous(model, spec, objective, groups, allow_prefetch, verify)
    if plan is None:
        raise ValueError(f"{model.name}: no feasible policy at GLB={spec.glb_bytes} bytes")
    return plan
