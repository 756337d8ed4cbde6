"""Accesses-vs-latency Pareto analysis (extension).

The paper optimizes one objective at a time (Algorithm 1 and its latency
variant) and shows the two extremes trade off (Fig. 9).  This module maps
the frontier *between* them: a weighted scalarization sweeps the
per-layer selection from pure-accesses to pure-latency, and the
plan-level frontier keeps the non-dominated outcomes.

Per-layer scalarization uses metrics normalized to the layer's own best
feasible value, so layers of very different magnitudes contribute
comparably for intermediate weights; the endpoints (``alpha`` 0 and 1)
reproduce the lexicographic Algorithm-1 selections up to ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..arch.spec import AcceleratorSpec
from ..estimators.evaluate import PolicyEvaluation, evaluate_layers
from ..nn.model import Model
from .objectives import Objective
from .plan import ExecutionPlan, make_assignment


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier point: a plan and the weight that produced it."""

    alpha: float  #: 0 = pure accesses, 1 = pure latency
    accesses_bytes: int
    latency_cycles: float
    plan: ExecutionPlan

    def dominates(self, other: "ParetoPoint") -> bool:
        """Weak domination on (accesses, latency), strict somewhere."""
        return (
            self.accesses_bytes <= other.accesses_bytes
            and self.latency_cycles <= other.latency_cycles
            and (
                self.accesses_bytes < other.accesses_bytes
                or self.latency_cycles < other.latency_cycles
            )
        )


def _select_weighted(
    evaluations: Sequence[PolicyEvaluation], alpha: float
) -> PolicyEvaluation:
    """Pick the evaluation minimizing the normalized weighted objective."""
    min_acc = min(ev.accesses_bytes for ev in evaluations)
    min_lat = min(ev.latency_cycles for ev in evaluations)

    def score(ev: PolicyEvaluation) -> float:
        acc = ev.accesses_bytes / min_acc if min_acc else 1.0
        lat = ev.latency_cycles / min_lat if min_lat else 1.0
        return (1.0 - alpha) * acc + alpha * lat

    return min(evaluations, key=score)


def plan_weighted(
    model: Model,
    spec: AcceleratorSpec,
    alpha: float,
    *,
    allow_prefetch: bool = True,
) -> ExecutionPlan:
    """Heterogeneous plan under a weighted accesses/latency objective."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    candidates = [entry[0] for entry in evaluate_layers(model.layers, spec, allow_prefetch)]
    if any(not evs for evs in candidates):
        raise ValueError(f"{model.name}: some layer has no feasible policy")
    assignments = [
        make_assignment(i, layer, _select_weighted(evs, alpha), spec)
        for i, (layer, evs) in enumerate(zip(model.layers, candidates))
    ]
    objective = Objective.LATENCY if alpha >= 0.5 else Objective.ACCESSES
    return ExecutionPlan(
        model=model,
        spec=spec,
        objective=objective,
        scheme=f"het(alpha={alpha:.2f})",
        assignments=tuple(assignments),
    )


def pareto_frontier(
    model: Model,
    spec: AcceleratorSpec,
    num_points: int = 11,
    *,
    allow_prefetch: bool = True,
) -> list[ParetoPoint]:
    """Sweep ``alpha`` and keep the non-dominated plans, sorted by accesses."""
    if num_points < 2:
        raise ValueError("need at least the two endpoint weights")
    points: list[ParetoPoint] = []
    for i in range(num_points):
        alpha = i / (num_points - 1)
        plan = plan_weighted(model, spec, alpha, allow_prefetch=allow_prefetch)
        points.append(
            ParetoPoint(
                alpha=alpha,
                accesses_bytes=plan.total_accesses_bytes,
                latency_cycles=plan.total_latency_cycles,
                plan=plan,
            )
        )
    frontier = [
        p
        for p in points
        if not any(q.dominates(p) for q in points)
    ]
    # Deduplicate identical outcomes, keep ascending accesses.
    seen: set[tuple[int, float]] = set()
    unique = []
    for p in sorted(frontier, key=lambda p: (p.accesses_bytes, p.latency_cycles)):
        key = (p.accesses_bytes, round(p.latency_cycles, 6))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique
