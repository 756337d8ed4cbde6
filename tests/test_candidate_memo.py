"""The candidate and tile-grid memos behind ``evaluate_layer``.

``evaluate_layer`` plans and evaluates each (layer, policy, prefetch)
candidate once per capacity signature, and the tile search builds each
layer's grid once.  These tests pin what the memos must not change: a
cleared memo is truly cold, concurrent planning matches sequential
planning even while the memos reset, and cached grid arrays cannot be
mutated by a caller.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analyzer import Objective, plan_heterogeneous
from repro.analyzer.export import plan_to_dict
from repro.arch import AcceleratorSpec, kib
from repro.estimators import evaluate
from repro.estimators.evaluate import clear_evaluation_memo
from repro.nn.zoo import get_model
from repro.policies import tiled
from repro.policies.registry import FALLBACK_POLICY, NAMED_POLICIES
from repro.serve.protocol import canonical_json

LADDER = (kib(64), kib(128), kib(256), kib(512), kib(1024))


@pytest.fixture
def calls(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """Count ``policy.plan``, ``evaluate_plans`` and tile-grid builds."""
    counts = {"plan": 0, "evaluate_plans": 0, "build_grid": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for cls in {type(p) for p in (*NAMED_POLICIES, FALLBACK_POLICY)}:
        monkeypatch.setattr(cls, "plan", counting("plan", cls.plan))
    monkeypatch.setattr(
        evaluate, "evaluate_plans", counting("evaluate_plans", evaluate.evaluate_plans)
    )
    monkeypatch.setattr(tiled, "_build_grid", counting("build_grid", tiled._build_grid))
    return counts


def test_clear_evaluation_memo_makes_the_next_plan_cold(calls):
    model = get_model("MobileNet")
    spec = AcceleratorSpec(glb_bytes=kib(128))
    clear_evaluation_memo()
    first = plan_heterogeneous(model, spec, Objective.ACCESSES)
    cold = dict(calls)
    assert cold["plan"] > 0 and cold["evaluate_plans"] > 0 and cold["build_grid"] > 0

    # Another GLB size reuses candidates whose signature did not move.
    plan_heterogeneous(model, spec.with_glb(kib(1024)), Objective.ACCESSES)
    assert calls["plan"] - cold["plan"] < cold["plan"]

    calls.update(plan=0, evaluate_plans=0, build_grid=0)
    clear_evaluation_memo()
    assert plan_heterogeneous(model, spec, Objective.ACCESSES) == first
    assert calls == cold  # nothing survived the clear


def _exports(specs: list[AcceleratorSpec], jobs: int) -> list[bytes]:
    model = get_model("MnasNet")

    def plan(spec: AcceleratorSpec) -> bytes:
        return canonical_json(plan_to_dict(plan_heterogeneous(model, spec, Objective.LATENCY)))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(plan, specs, timeout=300))


class _CountingDict(dict):
    """A memo dict that counts its wholesale resets."""

    def __init__(self) -> None:
        super().__init__()
        self.clears = 0

    def clear(self) -> None:
        self.clears += 1
        super().clear()


def test_concurrent_planning_matches_sequential_through_memo_resets(monkeypatch):
    specs = [AcceleratorSpec(glb_bytes=glb) for glb in LADDER for _ in range(2)]
    clear_evaluation_memo()
    expected = _exports(specs, jobs=1)

    candidates, grids = _CountingDict(), _CountingDict()
    monkeypatch.setattr(evaluate, "_CANDIDATE_MEMO", candidates)
    monkeypatch.setattr(evaluate, "_CANDIDATE_MEMO_MAX", 16)
    monkeypatch.setattr(tiled, "_GRID_MEMO", grids)
    monkeypatch.setattr(tiled, "_GRID_MEMO_MAX", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        evaluate._evaluate_layer_memo.cache_clear()
        got = _exports(specs, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    assert candidates.clears > 0 and grids.clears > 0
    assert got == expected


def test_cached_grid_arrays_are_read_only():
    layer = get_model("ResNet18").layers[0]
    tiled.clear_grid_memo()
    grid = tiled.tile_grid(layer, False)
    assert tiled.tile_grid(layer, False) is grid
    for array in grid:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
