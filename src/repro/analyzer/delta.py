"""Delta re-planning across a spec ladder (GLB sweeps, ablation ladders).

A GLB-size sweep re-runs Algorithm 1 on the same model at every size, but
most layers' candidate sets do not change between adjacent sizes: a policy
whose Eq. (1)/(2) capacity check keeps the same outcome — and, for the
budget-parameterized policies, the same chosen parameters — produces the
exact same :class:`~repro.estimators.evaluate.PolicyEvaluation` objects.

:class:`SweepPlanner` exploits that through each policy's
:meth:`~repro.policies.base.Policy.capacity_signature`: a compact value
capturing *everything* the policy's ``plan()`` takes from the budget
(feasibility bit for the fixed policies, block size ``n`` for P4/P5, the
winning tile parameters for the search fallback).  Equal signatures at two
budgets imply bit-identical evaluations, so the planner re-evaluates
**only** the layers whose signature moved and reuses the previous
evaluations for the rest — producing plans byte-identical to a full
:func:`~repro.analyzer.planner.plan_heterogeneous` run at every point (the
sweep-parity suite asserts it, audit trails included).

Invalidation invariant (what moves what):

* ``glb_bytes`` — the *only* field tracked incrementally; layers re-plan
  iff their capacity signature changes.
* any other spec field (``data_width_bits``, ``dram_bandwidth_elems_per_
  cycle``, ``ops_per_cycle``, ``dram``) — invalidates **every** layer:
  byte conversions and the latency model depend on them in ways no
  capacity signature covers.

Metrics: every ``plan()`` call adds per-layer counts to the PR 5 counters
``planner_layers_replanned_count`` / ``planner_layers_reused_count``, so
sweeps can assert they evaluated strictly fewer layers than points×layers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..arch.spec import AcceleratorSpec
from ..estimators.evaluate import PolicyAttempt, PolicyEvaluation, evaluate_layer
from ..nn.model import Model
from ..obs import get_tracer, metrics_registry
from ..obs.audit import CandidateRow, TrailBuilder
from ..policies.base import Policy
from ..policies.registry import FALLBACK_POLICY, NAMED_POLICIES
from .algorithm1 import select_policy
from .objectives import Objective
from .plan import ExecutionPlan, make_assignment
from .planner import _candidate_rows, _maybe_verify


@dataclass(frozen=True)
class _LayerState:
    """One layer's cached evaluation grid, keyed by capacity signature."""

    signature: tuple[object, ...]
    evaluations: tuple[PolicyEvaluation, ...]
    attempts: tuple[PolicyAttempt, ...]


class SweepPlanner:
    """Incremental heterogeneous planner for one model across a spec ladder.

    Call :meth:`plan` once per sweep point.  Within a ladder where only
    ``glb_bytes`` moves, layers whose capacity signatures are unchanged
    reuse their previous evaluations; every other layer (and every layer
    after any *other* spec field moved) is re-planned from scratch.  Each
    returned plan is byte-identical to ``plan_heterogeneous(model, spec,
    objective)`` with the same options.

    ``record_audit=False`` reproduces planner variants that attach no
    decision trail (e.g. the ``het(named-only)`` ablation), and
    ``always_fallback=False`` restricts the tile search to its rescue role
    exactly as :func:`~repro.analyzer.planner.candidate_evaluations` does.

    :func:`~repro.estimators.evaluate.evaluate_layer` now does the same
    reuse per candidate: its candidate memo keys on the capacity
    signature, so plain re-planning across a GLB ladder also plans and
    evaluates each candidate once per signature.  This class only still
    skips the ``evaluate_layer`` call of layers whose signature held.
    """

    def __init__(
        self,
        model: Model,
        objective: Objective = Objective.ACCESSES,
        *,
        scheme: str = "het",
        policies: tuple[Policy, ...] = NAMED_POLICIES,
        allow_prefetch: bool = True,
        use_fallback: bool = True,
        always_fallback: bool = True,
        record_audit: bool = True,
        verify: bool = False,
    ) -> None:
        self._model = model
        self._objective = objective
        self._scheme = scheme
        self._policies = policies
        self._allow_prefetch = allow_prefetch
        self._use_fallback = use_fallback
        self._always_fallback = always_fallback
        self._record_audit = record_audit
        self._verify = verify
        self._states: list[_LayerState | None] = [None] * len(model.layers)
        self._last_spec: AcceleratorSpec | None = None

    # ------------------------------------------------------------------

    def _signature(self, layer_index: int, budget_elems: int) -> tuple[object, ...]:
        """The layer's full capacity signature at one budget.

        Concatenates every candidate's
        :meth:`~repro.policies.base.Policy.capacity_signature` over
        (policy × prefetch), fallback included when it may engage — equal
        tuples at two budgets mean ``evaluate_layer`` returns identical
        results at both.
        """
        layer = self._model.layers[layer_index]
        prefetch_options = (False, True) if self._allow_prefetch else (False,)
        parts: list[object] = []
        for policy in self._policies:
            for prefetch in prefetch_options:
                parts.append(policy.capacity_signature(layer, budget_elems, prefetch))
        if self._use_fallback:
            for prefetch in prefetch_options:
                parts.append(
                    FALLBACK_POLICY.capacity_signature(layer, budget_elems, prefetch)
                )
        return tuple(parts)

    def _only_glb_moved(self, spec: AcceleratorSpec) -> bool:
        """Whether ``spec`` differs from the previous point in glb_bytes only."""
        previous = self._last_spec
        if previous is None:
            return False
        return replace(previous, glb_bytes=spec.glb_bytes) == spec

    # ------------------------------------------------------------------

    def plan(self, spec: AcceleratorSpec) -> ExecutionPlan:
        """Plan the model at one sweep point, reusing what cannot have moved."""
        if not self._only_glb_moved(spec):
            # A non-GLB spec field moved, or this is the first point:
            # nothing of the previous evaluations is trustworthy.
            self._states = [None] * len(self._model.layers)
        self._last_spec = spec

        tracer = get_tracer()
        registry = metrics_registry()
        budget = spec.glb_elems
        replanned = 0
        reused = 0
        states: list[_LayerState] = []
        with tracer.start(
            "plan_heterogeneous_delta",
            model=self._model.name,
            glb_bytes=spec.glb_bytes,
            objective=self._objective.value,
        ) as plan_span:
            for i, layer in enumerate(self._model.layers):
                signature = self._signature(i, budget)
                state = self._states[i]
                if state is None or state.signature != signature:
                    attempts: list[PolicyAttempt] = []
                    with tracer.start("plan_layer", layer=layer.name) as layer_span:
                        evaluations = evaluate_layer(
                            layer,
                            spec,
                            policies=self._policies,
                            use_fallback=self._use_fallback,
                            allow_prefetch=self._allow_prefetch,
                            always_fallback=self._always_fallback,
                            attempts=attempts,
                        )
                        layer_span.set_attr("candidates_count", len(evaluations))
                    state = _LayerState(
                        signature=signature,
                        evaluations=tuple(evaluations),
                        attempts=tuple(attempts),
                    )
                    self._states[i] = state
                    replanned += 1
                else:
                    reused += 1
                states.append(state)

            empty = [
                self._model.layers[i].name
                for i, state in enumerate(states)
                if not state.evaluations
            ]
            if empty:
                raise ValueError(
                    f"{self._model.name}: no feasible policy for layers {empty} at "
                    f"GLB={spec.glb_bytes} bytes"
                )

            trail = TrailBuilder(
                scheme=self._scheme,
                objective=self._objective.value,
                glb_bytes=spec.glb_bytes,
            )
            assignments = []
            for i, state in enumerate(states):
                selected: list[CandidateRow] = []
                choice = select_policy(
                    list(state.evaluations),
                    self._objective,
                    audit=selected if self._record_audit else None,
                )
                if self._record_audit:
                    trail.add_layer(
                        i,
                        self._model.layers[i].name,
                        _candidate_rows(list(state.attempts), selected),
                    )
                assignments.append(make_assignment(i, choice, spec))

            plan_span.set_attr("scheme", self._scheme)
            plan_span.set_attr("layers_replanned", replanned)
            plan_span.set_attr("layers_reused", reused)
            registry.counter("planner_layers_count").add(len(self._model.layers))
            registry.counter("planner_candidates_count").add(
                sum(len(s.evaluations) for s in states)
            )
            registry.counter("planner_layers_replanned_count").add(replanned)
            registry.counter("planner_layers_reused_count").add(reused)

        return _maybe_verify(
            ExecutionPlan(
                model=self._model,
                spec=spec,
                objective=self._objective,
                scheme=self._scheme,
                assignments=tuple(assignments),
                audit=trail.build() if self._record_audit else None,
            ),
            self._verify,
        )
