"""Scalar-vs-vectorized planner parity (the PR 8 parity oracle).

The vectorized grid planner must be *bit-identical* to the original scalar
implementation retained behind ``REPRO_SCALAR_PLANNER=1``: same winners,
same tie-breaks, same audit trails, same exported JSON bytes.  These tests
plan the zoo and hypothesis-fuzzed random chains under both paths and
compare the serialized artifacts, and pin the exact Python types of every
:class:`~repro.estimators.PolicyEvaluation` field so NumPy scalars can
never leak into plans (and from there into cache keys or JSON output).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import Objective, plan_heterogeneous, plan_to_dict, select_policy
from repro.analyzer.algorithm1 import _reject_reason, _select_index
from repro.arch import AcceleratorSpec, kib
from repro.dram import DEFAULT_DDR4_SPEC
from repro.estimators import evaluate_layer
from repro.nn import LayerKind, LayerSpec, make_model
from repro.nn.zoo import PAPER_MODEL_NAMES, get_model
from repro.obs.audit import CandidateRecord
from repro.plancore import ENV_SCALAR_PLANNER, scalar_planner_enabled


@contextmanager
def scalar_mode():
    """Run the enclosed block on the scalar parity-oracle path."""
    previous = os.environ.get(ENV_SCALAR_PLANNER)
    os.environ[ENV_SCALAR_PLANNER] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_SCALAR_PLANNER, None)
        else:
            os.environ[ENV_SCALAR_PLANNER] = previous


def _plan_bytes(model, spec, objective):
    plan = plan_heterogeneous(model, spec, objective)
    exported = json.dumps(plan_to_dict(plan), sort_keys=True)
    trail = json.dumps(plan.explain().to_payload(), sort_keys=True)
    return exported, trail


def test_zoo_plans_byte_identical_scalar_vs_vectorized():
    """Full zoo: exported plans and explain() trails match byte for byte."""
    assert not scalar_planner_enabled()
    cases = [
        (name, glb_kb, Objective.ACCESSES)
        for name in PAPER_MODEL_NAMES
        for glb_kb in (64, 256)
    ] + [("ResNet18", 128, Objective.LATENCY)]
    for name, glb_kb, objective in cases:
        model = get_model(name)
        spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
        vectorized = _plan_bytes(model, spec, objective)
        with scalar_mode():
            scalar = _plan_bytes(model, spec, objective)
        assert vectorized == scalar, f"{name} @ {glb_kb} kB ({objective})"


def test_ddr4_plans_byte_identical_scalar_vs_vectorized():
    """Banked DRAM: per-candidate trace-simulated bandwidths go through the
    same batched recurrence and still match the scalar path."""
    for name, objective in (
        ("MobileNet", Objective.LATENCY),
        ("ResNet18", Objective.ACCESSES),
    ):
        model = get_model(name)
        spec = AcceleratorSpec(glb_bytes=kib(128), dram=DEFAULT_DDR4_SPEC)
        vectorized = _plan_bytes(model, spec, objective)
        with scalar_mode():
            scalar = _plan_bytes(model, spec, objective)
        assert vectorized == scalar, f"{name} ({objective})"


@st.composite
def chain_models(draw):
    """Random sequential CNNs (1–4 conv/pw/dw layers, consistent shapes)."""
    num_layers = draw(st.integers(1, 4))
    hw = draw(st.sampled_from([8, 16, 28, 33]))
    channels = draw(st.integers(2, 16))
    layers = []
    for i in range(num_layers):
        kind = draw(
            st.sampled_from([LayerKind.CONV, LayerKind.POINTWISE, LayerKind.DEPTHWISE])
        )
        if kind is LayerKind.POINTWISE:
            f, pad = 1, 0
        else:
            f, pad = draw(st.sampled_from([(3, 1), (5, 2)]))
        stride = draw(st.sampled_from([1, 2]))
        # Depth-wise layers are modeled as a single grouped filter.
        num_filters = 1 if kind is LayerKind.DEPTHWISE else draw(st.integers(2, 24))
        layer = LayerSpec(
            name=f"l{i}",
            kind=kind,
            in_h=hw,
            in_w=hw,
            in_c=channels,
            f_h=f,
            f_w=f,
            num_filters=num_filters,
            stride=stride,
            padding=pad,
        )
        layers.append(layer)
        hw, channels = layer.out_h, layer.out_c
    return make_model("fuzz-chain", layers)


@settings(max_examples=30, deadline=None)
@given(
    model=chain_models(),
    glb=st.sampled_from([kib(8), kib(32), kib(64), kib(256)]),
    width=st.sampled_from([8, 16]),
    objective=st.sampled_from([Objective.ACCESSES, Objective.LATENCY]),
    dram=st.sampled_from([None, DEFAULT_DDR4_SPEC]),
)
def test_fuzzed_plans_byte_identical_scalar_vs_vectorized(
    model, glb, width, objective, dram
):
    assert not scalar_planner_enabled()
    spec = AcceleratorSpec(glb_bytes=glb, data_width_bits=width, dram=dram)
    vectorized = _plan_bytes(model, spec, objective)
    with scalar_mode():
        scalar = _plan_bytes(model, spec, objective)
    assert vectorized == scalar


# ----------------------------------------------------------------------
# Satellite: explicitly stable tie-breaking
# ----------------------------------------------------------------------


def _twin_evaluations(conv_layer, spec64):
    """Two candidates with *identical* metrics but distinct labels."""
    evaluations = evaluate_layer(conv_layer, spec64, allow_prefetch=False)
    first = evaluations[0]
    twin = replace(first, plan=replace(first.plan, policy_name="twin"))
    assert twin.accesses_bytes == first.accesses_bytes
    assert twin.latency_cycles == first.latency_cycles
    assert twin.label != first.label
    return first, twin


def test_tie_break_keeps_earlier_candidate(conv_layer, spec64):
    """On exact key ties Algorithm 1 must keep the earlier-listed candidate,
    on both the scalar and the vectorized selection path."""
    first, twin = _twin_evaluations(conv_layer, spec64)
    for objective in (Objective.ACCESSES, Objective.LATENCY):
        assert select_policy([first, twin], objective) is first
        assert select_policy([twin, first], objective) is twin
        assert _select_index([first, twin], objective) == 0
        with scalar_mode():
            assert select_policy([first, twin], objective) is first
            assert select_policy([twin, first], objective) is twin
            assert _select_index([first, twin], objective) == 0


# ----------------------------------------------------------------------
# Satellite: truthful sub-cycle reject reasons
# ----------------------------------------------------------------------


def test_reject_reason_subcycle_delta_is_not_zero_cycles(conv_layer, spec64):
    first, _ = _twin_evaluations(conv_layer, spec64)
    slower = replace(
        first,
        plan=replace(first.plan, policy_name="slow"),
        latency=replace(
            first.latency, total_cycles=first.latency.total_cycles + 0.4
        ),
    )
    reason = _reject_reason(slower, first, Objective.ACCESSES)
    assert "<1 cycle slower" in reason
    assert "0 cycles slower" not in reason
    # Whole-cycle deltas keep the historical wording.
    much_slower = replace(
        slower,
        latency=replace(first.latency, total_cycles=first.latency.total_cycles + 7),
    )
    assert "7 cycles slower" in _reject_reason(much_slower, first, Objective.ACCESSES)


def test_audit_trail_records_subcycle_reason(conv_layer, spec64):
    first, _ = _twin_evaluations(conv_layer, spec64)
    slower = replace(
        first,
        plan=replace(first.plan, policy_name="slow"),
        latency=replace(
            first.latency, total_cycles=first.latency.total_cycles + 0.25
        ),
    )
    audit = []
    select_policy([first, slower], Objective.ACCESSES, audit=audit)
    rejected = [CandidateRecord(*row) for row in audit if not row[4]]
    assert len(rejected) == 1
    assert "<1 cycle slower" in rejected[0].reason


# ----------------------------------------------------------------------
# Satellite: no NumPy scalar leakage into PolicyEvaluation
# ----------------------------------------------------------------------


def test_policy_evaluation_field_types_are_native(conv_layer, spec64):
    """Exact Python types: int64/float64 leakage would poison cached plans,
    cache keys and JSON exports."""
    assert not scalar_planner_enabled()
    evaluations = evaluate_layer(conv_layer, spec64, always_fallback=True)
    assert evaluations
    for ev in evaluations:
        assert type(ev.memory_bytes) is int, ev.label
        assert type(ev.accesses_bytes) is int, ev.label
        assert type(ev.read_bytes) is int, ev.label
        assert type(ev.write_bytes) is int, ev.label
        assert type(ev.latency.total_cycles) is float, ev.label
        assert type(ev.latency.compute_cycles) is float, ev.label
        assert type(ev.latency.dma_cycles) is float, ev.label


def test_plan_assignment_types_survive_json_round_trip(conv_layer, spec64):
    model = make_model("one", [conv_layer])
    plan = plan_heterogeneous(model, spec64)
    payload = plan_to_dict(plan)
    # json.dumps would coerce NumPy scalars silently on some versions and
    # crash on others; byte-compare an explicit round trip instead.
    assert json.loads(json.dumps(payload)) == payload
