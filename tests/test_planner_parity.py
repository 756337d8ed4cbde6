"""Single-path planner invariants the golden digests cannot isolate.

The golden suites (``test_flat_golden.py``, ``test_dram_golden.py``) pin
whole plans and trails.  These tests pin the pieces underneath: the
batched latency recurrence equals the per-plan recurrence exactly, a
whole model evaluated in one batch equals one layer at a time, ties
keep the earliest candidate, reject reasons are truthful, and every
:class:`~repro.estimators.PolicyEvaluation` field is a native Python type
so NumPy scalars can never leak into plans (and from there into cache
keys or JSON output).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import Objective, plan_heterogeneous, plan_to_dict, select_policy
from repro.analyzer.algorithm1 import _reject_reason, _select_index
from repro.arch import AcceleratorSpec, kib
from repro.dram import DEFAULT_DDR4_SPEC
from repro.estimators import (
    estimate_latency,
    evaluate_layer,
    evaluate_layers,
    evaluate_plans,
    schedule_latency,
    schedule_latency_batch,
)
from repro.estimators import latency as latency_module
from repro.estimators.evaluate import clear_evaluation_memo
from repro.nn import make_model
from repro.nn.zoo import ALL_MODEL_NAMES, PAPER_MODEL_NAMES, get_model
from repro.obs.audit import CandidateRecord
from repro.policies import FALLBACK_POLICY, NAMED_POLICIES, LayerSchedule, StepGroup

# ----------------------------------------------------------------------
# Batched latency recurrence vs the per-plan recurrence
# ----------------------------------------------------------------------


def _candidate_grids(model_names, spec):
    """Every distinct layer's full candidate grid (named policies and the
    tile search, with and without prefetch) at ``spec``."""
    seen = set()
    for name in model_names:
        for layer in get_model(name).layers:
            if layer in seen:
                continue
            seen.add(layer)
            yield [
                plan
                for policy in (*NAMED_POLICIES, FALLBACK_POLICY)
                for prefetch in (False, True)
                if (plan := policy.plan(layer, spec.glb_elems, prefetch)) is not None
            ]


@pytest.mark.parametrize(
    ("model_names", "spec"),
    [
        (PAPER_MODEL_NAMES, AcceleratorSpec(glb_bytes=kib(64))),
        (PAPER_MODEL_NAMES, AcceleratorSpec(glb_bytes=kib(256))),
        (
            ("ResNet18", "MobileNet"),
            AcceleratorSpec(glb_bytes=kib(256), dram=DEFAULT_DDR4_SPEC),
        ),
    ],
    ids=["flat-64", "flat-256", "ddr4-256"],
)
def test_batched_latency_equals_per_plan_latency(model_names, spec):
    """``evaluate_plans`` runs one batched recurrence per grid; every
    candidate's breakdown must equal the per-plan recurrence exactly."""
    for plans in _candidate_grids(model_names, spec):
        batched = evaluate_plans(plans, spec)
        for evaluation, plan in zip(batched, plans, strict=True):
            assert evaluation.latency == estimate_latency(plan, spec), plan.label


@pytest.mark.parametrize(
    "spec",
    [
        AcceleratorSpec(glb_bytes=kib(64)),
        AcceleratorSpec(glb_bytes=kib(256)),
        AcceleratorSpec(glb_bytes=kib(256), dram=DEFAULT_DDR4_SPEC),
    ],
    ids=["flat-64", "flat-256", "ddr4-256"],
)
@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_model_batch_equals_layer_at_a_time(name, spec):
    """One batch over a whole model's candidates gives every layer exactly
    the evaluations and tries that cold one-layer calls give, and every
    latency equals the per-plan recurrence."""
    layers = get_model(name).layers
    clear_evaluation_memo()
    batched = [entry[:2] for entry in evaluate_layers(layers, spec)]
    clear_evaluation_memo()
    one_by_one = [evaluate_layers([layer], spec)[0][:2] for layer in layers]
    assert batched == one_by_one
    for evaluations, _ in batched:
        for evaluation in evaluations:
            assert evaluation.latency == estimate_latency(evaluation.plan, spec)


_GROUP = st.builds(
    StepGroup,
    count=st.integers(1, 64),
    ifmap=st.sampled_from([0, 0, 1, 7, 96, 1_000]),
    filters=st.sampled_from([0, 0, 9, 300]),
    macs=st.sampled_from([0, 5, 256, 4_096, 100_000]),
    store=st.sampled_from([0, 0, 3, 64, 1_000]),
)

_SCHEDULE = st.builds(
    LayerSchedule,
    groups=st.lists(
        _GROUP, max_size=latency_module._BATCH_GROUP_LIMIT + 8
    ).map(tuple),
    resident_ifmap=st.sampled_from([0, 0, 50, 4_000]),
    resident_filters=st.sampled_from([0, 0, 27, 2_304]),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            _SCHEDULE,
            st.booleans(),
            st.one_of(
                st.sampled_from([16.0, 3.0, 5.5, 12.75, 0.3]),
                st.floats(0.1, 512.0, allow_nan=False, allow_infinity=False),
            ),
        ),
        min_size=1,
        max_size=8,
    ),
    ops_per_cycle=st.sampled_from([512, 2, 96, 1_000]),
)
def test_batched_recurrence_matches_per_schedule_recurrence(rows, ops_per_cycle):
    """Drawn schedules mixing long and short group lists, zero-load and
    zero-store groups, prefetch flags and arbitrary bandwidths."""
    spec = AcceleratorSpec(glb_bytes=kib(64), ops_per_cycle=ops_per_cycle)
    schedules = [schedule for schedule, _, _ in rows]
    flags = [flag for _, flag, _ in rows]
    bandwidths = [bandwidth for _, _, bandwidth in rows]
    expected = [
        schedule_latency(
            schedule, replace(spec, dram_bandwidth_elems_per_cycle=bandwidth), flag
        )
        for schedule, flag, bandwidth in rows
    ]
    assert schedule_latency_batch(schedules, spec, flags, bandwidths) == expected


# ----------------------------------------------------------------------
# Explicitly stable tie-breaking
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
    """On exact key ties Algorithm 1 must keep the earlier-listed candidate."""
    first, twin = _twin_evaluations(conv_layer, spec64)
    for objective in (Objective.ACCESSES, Objective.LATENCY):
        assert select_policy([first, twin], objective) is first
        assert select_policy([twin, first], objective) is twin
        assert _select_index([first, twin], objective) == 0


# ----------------------------------------------------------------------
# Truthful sub-cycle reject reasons
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
# No NumPy scalar leakage into PolicyEvaluation
# ----------------------------------------------------------------------


def test_policy_evaluation_field_types_are_native(conv_layer, spec64):
    """Exact Python types: int64/float64 leakage would poison cached plans,
    cache keys and JSON exports.  Flat and banked-DRAM specs both."""
    evaluations = [
        ev
        for spec in (spec64, replace(spec64, dram=DEFAULT_DDR4_SPEC))
        for ev in evaluate_layer(conv_layer, spec)
    ]
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
