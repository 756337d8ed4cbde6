"""Smoke checks of the analysis pipeline's entry points.

The paper reports that generating the management schemes for all models
takes ~1 minute on a laptop while the SCALE-Sim baseline takes >5 hours
(§4).  Our per-call costs are measured, stage by stage, by the benchmark
of record in ``bench/``; these checks only pin each call's output shape.
"""

from __future__ import annotations

from repro.analyzer import Objective, plan_heterogeneous
from repro.arch import AcceleratorSpec, kib
from repro.estimators import evaluate_layer
from repro.nn.zoo import get_model
from repro.scalesim import baseline_config, simulate

SPEC64 = AcceleratorSpec(glb_bytes=kib(64))


def test_bench_evaluate_single_layer():
    layer = get_model("ResNet18")[5]
    result = evaluate_layer(layer, SPEC64)
    assert result


def test_bench_het_plan_resnet18():
    model = get_model("ResNet18")
    plan = plan_heterogeneous(model, SPEC64)
    assert len(plan.assignments) == 21


def test_bench_het_plan_efficientnet():
    model = get_model("EfficientNetB0")
    plan = plan_heterogeneous(model, SPEC64)
    assert len(plan.assignments) == 82


def test_bench_het_plan_with_interlayer_dp():
    model = get_model("MnasNet")
    plan = plan_heterogeneous(
        model,
        SPEC64,
        Objective.ACCESSES,
        interlayer=True,
        interlayer_mode="joint",
    )
    assert len(plan.assignments) == 53


def test_bench_baseline_simulation():
    model = get_model("ResNet18")
    config = baseline_config(kib(64), 0.5)
    result = simulate(model, config)
    assert result.total_cycles > 0
