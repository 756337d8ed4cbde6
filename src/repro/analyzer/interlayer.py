"""Inter-layer reuse planning (paper §5.4) as a chain dynamic program.

When layer *i*'s ofmap can stay resident in the GLB until layer *i+1*
consumes it, the plan saves both the ofmap write-back of *i* and the ifmap
reads of *i+1*.  Whether that is worth the residency cost — and which
policies the two layers should then run — is a joint decision along the
whole chain, so the analyzer solves it exactly with a backward DP over
(layer, candidate policy, incoming-donation) states.

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

    # Pre-materialize assignments per (layer, candidate, receives, donates)
    # so the DP and the reconstruction share exact metrics.
    cells: list[dict[tuple[int, bool, bool], LayerAssignment]] = []
    for i, evs in enumerate(candidates):
        cell: dict[tuple[int, bool, bool], LayerAssignment] = {}
        for j, ev in enumerate(evs):
            for receives in (False, True):
                for donates in (False, True):
                    if donates and (i == n - 1 or not model.feeds_next(i)):
                        continue
                    if donates and not _can_donate(ev):
                        continue
                    if not _fits(ev, spec, receives, donates):
                        continue
                    cell[(j, receives, donates)] = make_assignment(
                        i, model.layers[i], ev, spec, receives=receives, donates=donates
                    )
        cells.append(cell)

    # Backward DP: best[(j, receives)] = (cost of layers i.., donate flag,
    # next candidate index) for layer i.
    nxt: dict[tuple[int, bool], tuple[_Cost, bool, int | None]] = {}
    for j, _ in enumerate(candidates[n - 1]):
        for receives in (False, True):
            assignment = cells[n - 1].get((j, receives, False))
            cost = (
                _assignment_cost(assignment, objective)
                if assignment is not None
                else _INFEASIBLE
            )
            nxt[(j, receives)] = (cost, False, None)

    tables: list[dict[tuple[int, bool], tuple[_Cost, bool, int | None]]] = [nxt]
    for i in range(n - 2, -1, -1):
        cur: dict[tuple[int, bool], tuple[_Cost, bool, int | None]] = {}
        nxt = tables[0]
        for j, _ in enumerate(candidates[i]):
            for receives in (False, True):
                best: tuple[_Cost, bool, int | None] = (_INFEASIBLE, False, None)
                for donates in (False, True):
                    assignment = cells[i].get((j, receives, donates))
                    if assignment is None:
                        continue
                    here = _assignment_cost(assignment, objective)
                    for k, _ in enumerate(candidates[i + 1]):
                        tail = nxt.get((k, donates), (_INFEASIBLE, False, None))[0]
                        total = _add(here, tail)
                        if total < best[0]:
                            best = (total, donates, k)
                cur[(j, receives)] = best
        tables.insert(0, cur)

    # Choose the entry candidate (layer 0 never receives).
    first = tables[0]
    best_j = min(
        range(len(candidates[0])),
        key=lambda j: first[(j, False)][0],
    )
    if first[(best_j, False)][0] == _INFEASIBLE:
        raise ValueError("no feasible inter-layer plan exists")

    # Reconstruct.
    assignments: list[LayerAssignment] = []
    j, receives = best_j, False
    for i in range(n):
        cost, donates, next_j = tables[i][(j, receives)]
        assignments.append(cells[i][(j, receives, donates)])
        if next_j is None:
            break
        j, receives = next_j, donates
    return assignments
