"""The candidate, tile-grid and decision memos behind the planners.

``evaluate_layers`` plans each layer as its name-blind shape and evaluates
each (shape, policy, prefetch) candidate once per capacity signature; the
tile search builds each shape's grid once; and the planners run Algorithm
1 once per distinct candidate set and objective (and family set, for
``Hom`` and rescue-only plans, which walk the ``Het`` entries once).
These tests pin how much work a cold zoo pass does, and what the memos
must not change: a cleared memo is truly cold, concurrent planning
matches sequential planning even while the memos reset, layers that
share a shape share a decision but keep their names, and cached grid
arrays cannot be mutated by a caller.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analyzer import Objective, plan_heterogeneous, planner
from repro.analyzer.export import plan_to_dict
from repro.arch import AcceleratorSpec, kib
from repro.dram import DEFAULT_DDR4_SPEC, trace
from repro.estimators import evaluate
from repro.estimators.evaluate import clear_evaluation_memo
from repro.experiments import cache, fig1
from repro.experiments.common import clear_in_process_caches
from repro.nn import LayerKind, LayerSpec
from repro.nn import layer as layer_module
from repro.nn.model import make_model
from repro.nn.zoo import get_model
from repro.policies import tiled
from repro.policies.registry import FALLBACK_POLICY, NAMED_POLICIES
from repro.serve.protocol import canonical_json

LADDER = (kib(64), kib(128), kib(256), kib(512), kib(1024))
ZOO = ("EfficientNetB0", "GoogLeNet", "MnasNet", "MobileNet", "MobileNetV2", "ResNet18")
COUNTS = ("plan", "candidates", "build_grid", "select", "dram")


@pytest.fixture
def calls(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """Count ``policy.plan`` calls, the candidates ``evaluate_plans``
    evaluates, tile-grid builds, ``select_policy`` calls in the planners
    and the streams DRAM replay batches simulate."""
    counts = dict.fromkeys(COUNTS, 0)

    def counting(name, original, weight=lambda *args: 1):
        def wrapper(*args, **kwargs):
            counts[name] += weight(*args)
            return original(*args, **kwargs)

        return wrapper

    for cls in {type(p) for p in (*NAMED_POLICIES, FALLBACK_POLICY)}:
        monkeypatch.setattr(cls, "plan", counting("plan", cls.plan))
    monkeypatch.setattr(
        evaluate,
        "evaluate_plans",
        counting("candidates", evaluate.evaluate_plans, lambda plans, spec: len(plans)),
    )
    monkeypatch.setattr(tiled, "_build_grid", counting("build_grid", tiled._build_grid))
    monkeypatch.setattr(planner, "select_policy", counting("select", planner.select_policy))
    monkeypatch.setattr(
        trace,
        "simulate_schedules",
        counting("dram", trace.simulate_schedules, lambda items, *rest: len(items)),
    )
    return counts


def test_cold_flat_zoo_pass_plans_each_distinct_decision_once(calls):
    # 301 layers of 161 shapes, 5 GLB sizes, 2 objectives, inter-layer
    # reuse off and on: 6,020 layer decisions, 1,270 of them distinct.
    clear_evaluation_memo()
    for name in ZOO:
        model = get_model(name)
        for glb in LADDER:
            spec = AcceleratorSpec(glb_bytes=glb)
            for objective in Objective:
                for interlayer in (False, True):
                    plan_heterogeneous(model, spec, objective, interlayer=interlayer)
    assert calls["select"] <= 1270
    assert calls["candidates"] <= 3062
    assert calls["build_grid"] <= 161
    assert calls["dram"] == 0


def test_cold_ddr4_pass_simulates_each_shape_schedule_once(calls, monkeypatch):
    replayed: list[object] = []
    counted = trace.simulate_schedules

    def recording(items, *args, **kwargs):
        replayed.extend(items)
        return counted(items, *args, **kwargs)

    monkeypatch.setattr(trace, "simulate_schedules", recording)
    clear_evaluation_memo()
    for name in ("MnasNet", "MobileNet", "ResNet18"):
        model = get_model(name)
        for glb in (kib(256), kib(512), kib(1024)):
            spec = AcceleratorSpec(glb_bytes=glb, dram=DEFAULT_DDR4_SPEC)
            plan_heterogeneous(model, spec, Objective.ACCESSES)
    assert 0 < calls["dram"] <= 505
    # Each distinct (schedule, shape) is replayed once, even when one grid
    # holds it twice.
    assert len(replayed) == len(set(replayed)) == calls["dram"]


def test_hom_plans_are_one_walk_over_het_entries(monkeypatch):
    # Every Hom plan reads the per-layer entries a Het plan already made:
    # no new entry, no new candidate, and one evaluate_layers call over
    # all the model's layers.
    cells = [
        (get_model(name), AcceleratorSpec(glb_bytes=kib(glb_kb)), objective)
        for name, glb_kb in (("MobileNet", 1), ("ResNet18", 64), ("MnasNet", 256))
        for objective in Objective
    ]
    clear_evaluation_memo()
    for model, spec, objective in cells:
        plan_heterogeneous(model, spec, objective)
    entries = len(evaluate._LAYER_MEMO)
    candidates = len(evaluate._CANDIDATE_MEMO)
    walked: list[list[str]] = []

    def counting(layers, *args, **kwargs):
        walked.append([layer.name for layer in layers])
        return evaluate.evaluate_layers(layers, *args, **kwargs)

    monkeypatch.setattr(planner, "evaluate_layers", counting)
    for model, spec, objective in cells:
        walked.clear()
        planner.best_homogeneous(model, spec, objective)
        assert walked == [[layer.name for layer in model.layers]]
        for family in planner.FAMILIES:
            planner.plan_homogeneous(model, spec, family, objective)
    assert len(evaluate._LAYER_MEMO) == entries
    assert len(evaluate._CANDIDATE_MEMO) == candidates


def test_named_only_plans_read_het_entries(monkeypatch, tmp_path):
    # The rescue-only plan, and fig1, which takes its two layers' picks
    # from that plan, decide over the entries a Het plan already made.
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
    clear_in_process_caches()
    model, spec = get_model("ResNet18"), AcceleratorSpec(glb_bytes=kib(64))
    plan_heterogeneous(model, spec)
    entries = len(evaluate._LAYER_MEMO)
    candidates = len(evaluate._CANDIDATE_MEMO)
    plan = planner.plan_named_only(model, spec, verify=True)
    assert plan.scheme == "het(named-only)" and plan.audit is not None
    assert [case.glb_policy for case in fig1.run()] == [
        plan.assignments[model.layers.index(model.find(case_layer))].label
        for case_layer in fig1.CASE_LAYERS.values()
    ]
    assert len(evaluate._LAYER_MEMO) == entries
    assert len(evaluate._CANDIDATE_MEMO) == candidates


def test_dram_memo_resets_wholesale_above_its_cap(monkeypatch):
    model = get_model("MobileNet")
    spec = AcceleratorSpec(glb_bytes=kib(256), dram=DEFAULT_DDR4_SPEC)
    clear_evaluation_memo()
    expected = plan_heterogeneous(model, spec, Objective.LATENCY)
    assert len(trace._BANDWIDTH_MEMO) > 8

    memo = _CountingDict()
    monkeypatch.setattr(trace, "_BANDWIDTH_MEMO", memo)
    monkeypatch.setattr(trace, "_BANDWIDTH_MEMO_MAX", 8)
    evaluate._LAYER_MEMO.clear()
    evaluate._CANDIDATE_MEMO.clear()
    assert plan_heterogeneous(model, spec, Objective.LATENCY) == expected
    assert memo.clears > 0
    assert memo


def test_clear_evaluation_memo_makes_the_next_plan_cold(calls):
    model = get_model("MobileNet")
    spec = AcceleratorSpec(glb_bytes=kib(128))
    clear_evaluation_memo()
    first = plan_heterogeneous(model, spec, Objective.ACCESSES)
    cold = dict(calls)
    assert cold["plan"] > 0 and cold["candidates"] > 0 and cold["build_grid"] > 0
    # One selection per distinct layer shape: every decision was made.
    assert cold["select"] == len({layer.shape for layer in model.layers})

    # Another GLB size reuses candidates whose signature did not move.
    plan_heterogeneous(model, spec.with_glb(kib(1024)), Objective.ACCESSES)
    assert calls["plan"] - cold["plan"] < cold["plan"]

    calls.update(dict.fromkeys(COUNTS, 0))
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

    entries, candidates, decisions, grids, shapes = (_CountingDict() for _ in range(5))
    monkeypatch.setattr(evaluate, "_LAYER_MEMO", entries)
    monkeypatch.setattr(evaluate, "_LAYER_MEMO_MAX", 8)
    monkeypatch.setattr(evaluate, "_CANDIDATE_MEMO", candidates)
    monkeypatch.setattr(evaluate, "_CANDIDATE_MEMO_MAX", 16)
    monkeypatch.setattr(evaluate, "_DECISION_MEMO", decisions)
    monkeypatch.setattr(evaluate, "_DECISION_MEMO_MAX", 2)
    monkeypatch.setattr(layer_module, "_SHAPES", shapes)
    monkeypatch.setattr(layer_module, "_SHAPES_MAX", 4)
    monkeypatch.setattr(tiled, "_GRID_MEMO", grids)
    monkeypatch.setattr(tiled, "_GRID_MEMO_MAX", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _exports(specs, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    assert all(memo.clears > 0 for memo in (entries, candidates, decisions, grids, shapes))
    assert got == expected


def test_concurrent_ddr4_planning_matches_sequential_through_dram_memo_resets(monkeypatch):
    specs = [
        AcceleratorSpec(glb_bytes=glb, dram=DEFAULT_DDR4_SPEC)
        for glb in (kib(256), kib(1024))
        for _ in range(3)
    ]
    clear_evaluation_memo()
    expected = _exports(specs, jobs=1)

    memo = _CountingDict()
    monkeypatch.setattr(trace, "_BANDWIDTH_MEMO", memo)
    monkeypatch.setattr(trace, "_BANDWIDTH_MEMO_MAX", 8)
    monkeypatch.setattr(evaluate, "_CANDIDATE_MEMO_MAX", 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_evaluation_memo()
        memo.clears = 0
        got = _exports(specs, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    assert memo.clears > 0
    assert got == expected


def _conv(name: str) -> LayerSpec:
    return LayerSpec(name=name, kind=LayerKind.CONV, in_h=28, in_w=28, in_c=64,
                     f_h=3, f_w=3, num_filters=64, padding=1)


def test_same_shape_layers_share_one_decision_and_keep_their_names(calls):
    model = make_model("twins", [_conv("first"), _conv("second")])
    clear_evaluation_memo()
    plan = plan_heterogeneous(model, AcceleratorSpec(glb_bytes=kib(64)), Objective.ACCESSES)
    assert calls["select"] == 1
    first, second = plan.assignments
    assert first.evaluation is second.evaluation
    assert first.evaluation.plan.layer.name == ""
    assert plan.audit is not None
    assert plan.audit.layers[0].rows is plan.audit.layers[1].rows
    assert [a.layer for a in plan.assignments] == list(model.layers)
    assert [row["layer"] for row in plan_to_dict(plan)["layers"]] == ["first", "second"]
    payload = plan.explain().to_payload()["layers"]
    assert [decision["layer"] for decision in payload] == ["first", "second"]


def test_cached_grid_arrays_are_read_only():
    layer = get_model("ResNet18").layers[0]
    tiled.clear_grid_memo()
    grid = tiled.tile_grid(layer, False)
    assert tiled.tile_grid(layer, False) is grid
    for array in grid:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
