"""Inter-layer reuse planning (paper §5.4) as a chain dynamic program.

When layer *i*'s ofmap can stay resident in the GLB until layer *i+1*
consumes it, the plan saves both the ofmap write-back of *i* and the ifmap
reads of *i+1*.  Whether that is worth the residency cost — and which
policies the two layers should then run — is a joint decision along the
whole chain, so the analyzer solves it exactly with a backward DP over
two states per layer: it receives its predecessor's ofmap or it does not.
Once that is fixed, the cheapest plan of layers *i..* does not depend on
the policies of the layers before *i*, so each state keeps only its
cheapest suffix cost and the assignment of layer *i* that starts it:
O(n · K) assignments for *n* layers of *K* candidates.

Donation across a pair requires:

* the pair is a direct producer→consumer edge (branches, residual adds and
  pooling break the chain — see :meth:`repro.nn.Model.feeds_next`);
* the donor keeps its *full* ofmap on-chip alongside its streamed tiles
  (:func:`~repro.analyzer.plan.required_memory_elems` with ``donates``);
* the receiver hosts the full donated ifmap alongside its streamed tiles
  (same helper with ``receives``);
* the donor does not spill partial ofmaps off-chip (tiled fallback plans
  with spill traffic are excluded).
"""

from __future__ import annotations

from typing import Sequence

from ..arch.spec import AcceleratorSpec
from ..estimators.evaluate import PolicyEvaluation
from ..nn.model import Model
from .objectives import Objective
from .plan import LayerAssignment, make_assignment, required_memory_elems

#: Cost tuples are (primary metric, secondary metric) per the objective.
_Cost = tuple[float, float]
_INFEASIBLE: _Cost = (float("inf"), float("inf"))


def _add(a: _Cost, b: _Cost) -> _Cost:
    return (a[0] + b[0], a[1] + b[1])


def _assignment_cost(assignment: LayerAssignment, objective: Objective) -> _Cost:
    return objective.key(assignment.accesses_bytes, assignment.latency_cycles)


def _fits(
    ev: PolicyEvaluation, spec: AcceleratorSpec, receives: bool, donates: bool
) -> bool:
    return required_memory_elems(ev, receives, donates) <= spec.glb_elems


def _can_donate(ev: PolicyEvaluation) -> bool:
    return ev.plan.traffic.ofmap_spills == 0


def apply_opportunistic_interlayer(
    model: Model,
    spec: AcceleratorSpec,
    assignments: list[LayerAssignment],
) -> list[LayerAssignment]:
    """Paper-faithful inter-layer reuse: donate where the chosen plans allow.

    The per-layer policies are fixed first (Algorithm 1); a left-to-right
    pass then enables donation on every producer→consumer pair whose chosen
    plans can host the retained ofmap / resident ifmap.  Donation strictly
    removes off-chip traffic, so whenever it is feasible it is beneficial
    for both objectives.

    (The joint DP in :func:`plan_chain_with_interlayer` is our extension:
    it co-selects policies and donation edges and can find donations this
    pass cannot; see the ablation benchmarks.)
    """
    n = len(assignments)
    flags: list[tuple[bool, bool]] = [(False, False) for _ in range(n)]
    receives = False
    for i in range(n):
        ev = assignments[i].evaluation
        donates = False
        if i < n - 1 and model.feeds_next(i) and _can_donate(ev):
            ev_next = assignments[i + 1].evaluation
            if _fits(ev, spec, receives, True) and _fits(ev_next, spec, True, False):
                donates = True
        flags[i] = (receives, donates)
        receives = donates
    return [
        make_assignment(i, a.layer, a.evaluation, spec, receives=rec, donates=don)
        for i, (a, (rec, don)) in enumerate(zip(assignments, flags))
    ]


def plan_chain_with_interlayer(
    model: Model,
    spec: AcceleratorSpec,
    objective: Objective,
    candidates: Sequence[Sequence[PolicyEvaluation]],
) -> list[LayerAssignment]:
    """Jointly choose per-layer policies and donation edges.

    ``candidates[i]`` are the feasible evaluations of layer ``i`` (from
    :func:`repro.estimators.evaluate_layers`).  Returns one assignment per
    layer with ``receives``/``donates`` set along the chosen edges.
    """
    n = len(model.layers)
    if len(candidates) != n:
        raise ValueError("need one candidate list per layer")
    if any(not c for c in candidates):
        raise ValueError("every layer needs at least one feasible candidate")

    # Backward over the layers, two states each: tail[r] is the cheapest
    # cost of the layers after i when layer i+1 receives (r=True) or not;
    # once layer i is done it is that of layers i.., and starts[-1][r] is
    # the assignment of layer i that starts it.  Candidates go in list
    # order, not donating before donating, and only a strictly cheaper
    # total replaces a pick.
    tail: list[_Cost] = [(0.0, 0.0), _INFEASIBLE]
    starts: list[list[LayerAssignment | None]] = []
    for i in range(n - 1, -1, -1):
        can_donate = i < n - 1 and model.feeds_next(i)
        costs: list[_Cost] = [_INFEASIBLE, _INFEASIBLE]
        picks: list[LayerAssignment | None] = [None, None]
        for receives in (False, True) if i > 0 and model.feeds_next(i - 1) else (False,):
            for ev in candidates[i]:
                for donates in (False, True) if can_donate and _can_donate(ev) else (False,):
                    if not _fits(ev, spec, receives, donates):
                        continue
                    assignment = make_assignment(
                        i, model.layers[i], ev, spec, receives=receives, donates=donates
                    )
                    total = _add(_assignment_cost(assignment, objective), tail[donates])
                    if total < costs[receives]:
                        costs[receives], picks[receives] = total, assignment
        tail = costs
        starts.append(picks)
    if tail[False] == _INFEASIBLE:
        raise ValueError("no feasible inter-layer plan exists")

    assignments: list[LayerAssignment] = []
    receives = False
    for picks in reversed(starts):
        pick = picks[receives]
        assert pick is not None  # a feasible suffix starts here
        assignments.append(pick)
        receives = pick.donates
    return assignments
