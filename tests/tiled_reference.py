"""Reference tile search: the candidate-at-a-time loop.

A deliberately plain model of what :class:`repro.policies.TiledFallback`
computes with arrays.  It builds every ``(n_f, o_t, w_t)`` candidate with
``TiledFallback._instantiate`` in grid order and keeps the first one with
the smallest ``(traffic, steps)`` key, height-wise bands first and the
width direction only when nothing fits.  The differential tests compare
the production search with it, winner and tie-break included.
"""

from __future__ import annotations

from repro.nn.layer import LayerSpec
from repro.policies.base import CandidatePlan
from repro.policies.tiled import TiledFallback, _candidate_values


def reference_tiled_plan(
    layer: LayerSpec, budget_elems: int, prefetch: bool
) -> CandidatePlan | None:
    """Fewest-accesses feasible tile plan, one candidate at a time."""
    policy = TiledFallback()
    best: CandidatePlan | None = None
    best_key: tuple[int, int] | None = None
    n_limit = layer.in_c if layer.kind.is_depthwise else layer.num_filters

    def consider(n_f: int, o_t: int, w_t: int) -> None:
        nonlocal best, best_key
        plan = policy._instantiate(layer, budget_elems, prefetch, n_f, o_t, w_t)
        if plan is None:
            return
        key = (plan.traffic.total, plan.schedule.num_steps)
        # Strict improvement keeps the earliest candidate on exact ties.
        if best_key is None or key < best_key:
            best, best_key = plan, key

    for n_f in _candidate_values(n_limit):
        for o_t in _candidate_values(layer.out_h):
            consider(n_f, o_t, layer.out_w)
    if best is None:
        # Height-wise tiling alone cannot fit: engage the width direction.
        for n_f in _candidate_values(n_limit):
            for o_t in _candidate_values(layer.out_h):
                for w_t in _candidate_values(layer.out_w)[:-1]:
                    consider(n_f, o_t, w_t)
    return best
