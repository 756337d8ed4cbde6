"""Delta re-planning (:class:`repro.analyzer.SweepPlanner`) parity tests.

The delta planner must produce plans *byte-identical* to full per-point
re-planning across a GLB ladder — including audit trails — while actually
re-planning strictly fewer layers (asserted through the PR 5 metrics
counters), and must invalidate everything when any non-GLB spec field
moves.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.analyzer import (
    Objective,
    SweepPlanner,
    make_assignment,
    plan_heterogeneous,
    plan_to_dict,
    select_policy,
)
from repro.analyzer.plan import ExecutionPlan
from repro.analyzer.planner import candidate_evaluations
from repro.arch import AcceleratorSpec, kib
from repro.experiments import cache
from repro.experiments.common import het_plan_ladder, spec_for
from repro.experiments.sweep import bandwidth_sweep, glb_sweep
from repro.nn.zoo import get_model
from repro.obs import metrics_registry

LADDER_KB = (64, 128, 256, 512, 1024)


def _json(plan: ExecutionPlan) -> tuple[str, str]:
    exported = json.dumps(plan_to_dict(plan), sort_keys=True)
    trail = (
        json.dumps(plan.explain().to_payload(), sort_keys=True)
        if plan.audit is not None
        else ""
    )
    return exported, trail


def _counter(name: str) -> float:
    return metrics_registry().counter(name).value


@pytest.mark.parametrize("model_name", ["ResNet18", "EfficientNetB0"])
@pytest.mark.parametrize("objective", [Objective.ACCESSES, Objective.LATENCY])
def test_delta_equals_full_replanning_across_glb_ladder(model_name, objective):
    model = get_model(model_name)
    planner = SweepPlanner(model, objective)
    for glb_kb in LADDER_KB:
        spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
        delta = planner.plan(spec)
        full = plan_heterogeneous(model, spec, objective)
        assert _json(delta) == _json(full), f"{model_name} @ {glb_kb} kB"


def test_delta_replans_strictly_fewer_layers():
    model = get_model("ResNet18")
    planner = SweepPlanner(model, Objective.ACCESSES)
    replanned0 = _counter("planner_layers_replanned_count")
    reused0 = _counter("planner_layers_reused_count")
    for glb_kb in LADDER_KB:
        planner.plan(AcceleratorSpec(glb_bytes=kib(glb_kb)))
    replanned = _counter("planner_layers_replanned_count") - replanned0
    reused = _counter("planner_layers_reused_count") - reused0
    total = len(LADDER_KB) * len(model.layers)
    assert replanned + reused == total
    assert reused > 0, "expected at least one reused layer on the ladder"
    assert replanned < total, "delta path must re-plan strictly fewer layers"


def test_non_glb_spec_move_invalidates_every_layer():
    model = get_model("MobileNet")
    planner = SweepPlanner(model, Objective.LATENCY)
    spec = AcceleratorSpec(glb_bytes=kib(256))
    planner.plan(spec)
    replanned0 = _counter("planner_layers_replanned_count")
    reused0 = _counter("planner_layers_reused_count")
    moved = replace(spec, dram_bandwidth_elems_per_cycle=32.0)
    delta = planner.plan(moved)
    assert _counter("planner_layers_replanned_count") - replanned0 == len(
        model.layers
    )
    assert _counter("planner_layers_reused_count") - reused0 == 0
    assert _json(delta) == _json(plan_heterogeneous(model, moved, Objective.LATENCY))
    # Re-planning the original spec afterwards must also be a full replan
    # (the bandwidth excursion invalidated the stored evaluations).
    replanned1 = _counter("planner_layers_replanned_count")
    back = planner.plan(spec)
    assert _counter("planner_layers_replanned_count") - replanned1 == len(
        model.layers
    )
    assert _json(back) == _json(plan_heterogeneous(model, spec, Objective.LATENCY))


def test_glb_sweep_delta_path_matches_per_point_path():
    model = get_model("MnasNet")
    sizes = [kib(k) for k in LADDER_KB]
    # interlayer=False is not delta-reproducible by kwarg filtering, so it
    # forces the historical per-point path with identical semantics.
    delta_points = glb_sweep(model, sizes)
    full_points = glb_sweep(model, sizes, interlayer=False)
    assert delta_points == full_points


def test_bandwidth_sweep_delta_path_matches_per_point_path():
    model = get_model("AlexNet")
    bandwidths = [4.0, 16.0, 64.0]
    delta_points = bandwidth_sweep(model, bandwidths)
    full_points = bandwidth_sweep(model, bandwidths, interlayer=False)
    assert delta_points == full_points


def test_het_plan_ladder_matches_point_planning_and_cache_keys(tmp_path):
    model = get_model("MobileNetV2")
    previous = os.environ.get(cache.ENV_CACHE_DIR)
    os.environ[cache.ENV_CACHE_DIR] = str(tmp_path)
    try:
        plans = het_plan_ladder(model, (64, 256))
        for glb_kb, plan in zip((64, 256), plans):
            spec = spec_for(glb_kb)
            # Byte-identical to a fresh full plan...
            assert _json(plan) == _json(plan_heterogeneous(model, spec))
            # ...and stored under cached_het_plan's exact key.
            key = cache.plan_cache_key(
                "het",
                model,
                spec,
                Objective.ACCESSES,
                allow_prefetch=True,
                interlayer=False,
                interlayer_mode="opportunistic",
            )
            cached = cache.fetch(key, lambda: pytest.fail("cache miss"))
            assert _json(cached) == _json(plan)
    finally:
        if previous is None:
            os.environ.pop(cache.ENV_CACHE_DIR, None)
        else:
            os.environ[cache.ENV_CACHE_DIR] = previous


def test_named_only_ablation_byte_identical_to_manual_construction():
    """The rescue-only ablation, now delta-planned, must reproduce the
    pre-delta manual construction exactly (no audit, same scheme)."""
    model = get_model("ResNet18")
    objective = Objective.ACCESSES
    planner = SweepPlanner(
        model,
        objective,
        scheme="het(named-only)",
        always_fallback=False,
        record_audit=False,
    )
    for glb_kb in (64, 256):
        spec = spec_for(glb_kb)
        delta = planner.plan(spec)
        candidates = candidate_evaluations(model, spec, always_fallback=False)
        manual = ExecutionPlan(
            model=model,
            spec=spec,
            objective=objective,
            scheme="het(named-only)",
            assignments=tuple(
                make_assignment(i, select_policy(evs, objective), spec)
                for i, evs in enumerate(candidates)
            ),
        )
        assert delta.audit is None
        assert _json(delta) == _json(manual)
