"""Property-based tests (hypothesis) for the core invariants.

The central invariants of the library:

1. every plan a policy returns fits the budget it was given (Eq. 1/2);
2. a plan's streaming schedule moves exactly the traffic it declares;
3. traffic is never below the compulsory minimum (each element once);
4. the single-transfer policies achieve exactly that minimum;
5. the closed-form latency equals the step-level event simulation;
6. prefetching never increases latency for the same schedule;
7. baseline DRAM traffic is monotone in buffer capacity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import PAPER_DATA_WIDTHS, AcceleratorSpec
from repro.dram import DEFAULT_DDR4_SPEC
from repro.estimators import evaluate_layers, schedule_latency
from repro.estimators.evaluate import clear_evaluation_memo
from repro.nn import LayerSpec
from repro.policies import (
    FALLBACK_POLICY,
    NAMED_POLICIES,
    LayerSchedule,
    StepGroup,
)
from repro.scalesim import GemmWorkload, ScaleSimConfig, layer_traffic, lower_layer
from repro.sim.engine import Step, expand_schedule

from .strategies import layers


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

def _compulsory_min(layer: LayerSpec) -> int:
    from repro.policies.base import Policy

    return Policy.ifmap_pass_elems(layer) + layer.filter_elems + layer.ofmap_elems


step_groups = st.builds(
    StepGroup,
    count=st.integers(1, 50),
    ifmap=st.integers(0, 1000),
    filters=st.integers(0, 1000),
    macs=st.integers(0, 100_000),
    store=st.integers(0, 1000),
)

schedules = st.builds(
    LayerSchedule,
    groups=st.lists(step_groups, min_size=1, max_size=5).map(tuple),
    resident_ifmap=st.integers(0, 5000),
    resident_filters=st.integers(0, 5000),
)

budgets = st.integers(500, 1 << 24)
prefetches = st.booleans()

ALL_POLICIES = (*NAMED_POLICIES, FALLBACK_POLICY)


# ----------------------------------------------------------------------
# Policy invariants
# ----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(layer=layers(), budget=budgets, prefetch=prefetches)
def test_plans_fit_their_budget(layer, budget, prefetch):
    for policy in ALL_POLICIES:
        plan = policy.plan(layer, budget, prefetch)
        if plan is not None:
            assert plan.memory_elems <= budget, policy.name


@settings(max_examples=150, deadline=None)
@given(layer=layers(), budget=budgets, prefetch=prefetches)
def test_schedule_equals_traffic(layer, budget, prefetch):
    for policy in ALL_POLICIES:
        plan = policy.plan(layer, budget, prefetch)
        if plan is None:
            continue
        s, t = plan.schedule, plan.traffic
        assert s.total_ifmap_load == t.ifmap_reads, policy.name
        assert s.total_filter_load == t.filter_reads, policy.name
        assert s.total_store == t.ofmap_writes + t.ofmap_spills, policy.name
        assert s.total_macs == layer.macs, policy.name


@settings(max_examples=150, deadline=None)
@given(layer=layers(), budget=budgets, prefetch=prefetches)
def test_traffic_at_least_compulsory(layer, budget, prefetch):
    minimum = _compulsory_min(layer)
    for policy in ALL_POLICIES:
        plan = policy.plan(layer, budget, prefetch)
        if plan is not None:
            assert plan.traffic.total >= minimum, policy.name


@settings(max_examples=150, deadline=None)
@given(layer=layers())
def test_single_transfer_policies_hit_minimum(layer):
    minimum = _compulsory_min(layer)
    unconstrained = 1 << 50
    for policy in NAMED_POLICIES[:4]:  # intra, p1, p2, p3
        plan = policy.plan(layer, unconstrained, False)
        assert plan is not None
        assert plan.traffic.total == minimum, policy.name


@settings(max_examples=100, deadline=None)
@given(layer=layers(), prefetch=prefetches)
def test_p4_p5_traffic_decreases_with_budget(layer, prefetch):
    """More room -> bigger filter blocks -> fewer ifmap re-streams."""
    for policy in NAMED_POLICIES[4:]:
        previous = None
        for budget in (2_000, 20_000, 200_000, 1 << 30):
            plan = policy.plan(layer, budget, prefetch)
            if plan is None:
                continue
            if previous is not None:
                assert plan.traffic.total <= previous, policy.name
            previous = plan.traffic.total


@settings(max_examples=200, deadline=None)
@given(layer=layers(), budget=budgets, other=budgets, prefetch=prefetches)
def test_equal_capacity_signatures_imply_equal_plans(layer, budget, other, prefetch):
    """The capacity-signature contract the candidate memo and the sweep
    planner rest on: same signature at two budgets => same plan."""
    for policy in ALL_POLICIES:
        for second in (other, budget + 1, budget * 2):
            if policy.capacity_signature(
                layer, budget, prefetch
            ) == policy.capacity_signature(layer, second, prefetch):
                assert policy.plan(layer, budget, prefetch) == policy.plan(
                    layer, second, prefetch
                ), policy.name


#: (budget in elements, data width, flat bandwidth, banked DDR4 or not)
memo_points = st.tuples(
    budgets,
    st.sampled_from(PAPER_DATA_WIDTHS),
    st.sampled_from([2.0, 16.0, 100.0]),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    layer=layers(),
    point=memo_points,
    warm=st.lists(memo_points, min_size=1, max_size=3),
)
def test_warm_candidate_memo_matches_cold_evaluation(layer, point, warm):
    """``evaluate_layers`` at one spec, after the candidate memo was warmed
    at other budgets (same other fields) and at other widths, bandwidths
    and DRAM models (same budget), returns what a cold call returns: the
    same evaluations and the same attempt trail."""
    def run(elems, width, bandwidth, ddr4):
        spec = AcceleratorSpec(
            glb_bytes=elems * (width // 8),
            data_width_bits=width,
            dram_bandwidth_elems_per_cycle=bandwidth,
            dram=DEFAULT_DDR4_SPEC if ddr4 else None,
        )
        evaluations, attempts, _ = evaluate_layers([layer], spec)[0]
        return evaluations, attempts

    clear_evaluation_memo()
    cold = run(*point)
    clear_evaluation_memo()
    for elems, width, bandwidth, ddr4 in warm:
        run(elems, *point[1:])
        run(point[0], width, bandwidth, ddr4)
    assert run(*point) == cold


# ----------------------------------------------------------------------
# Latency model invariants
# ----------------------------------------------------------------------

SPEC = AcceleratorSpec()


def _simulate_schedule(schedule: LayerSchedule, prefetch: bool) -> float:
    """Reference step-by-step replay of the engine recurrences."""
    bw = SPEC.dram_bandwidth_elems_per_cycle
    rate = SPEC.macs_per_cycle
    load_t = schedule.resident_load / bw
    pe_t = load_t
    store_t = 0.0
    for step in expand_schedule(schedule):
        if prefetch:
            load_t += step.load / bw
            pe_t = max(pe_t, load_t) + step.macs / rate
            if step.store:
                store_t = max(store_t, pe_t) + step.store / bw
        else:
            t = max(load_t, pe_t, store_t) + step.load / bw
            load_t = t
            pe_t = t + step.macs / rate
            store_t = pe_t + step.store / bw
    total = max(load_t, pe_t, store_t)
    if prefetch:
        total = max(total, (schedule.total_load + schedule.total_store) / bw)
    return total


@settings(max_examples=200, deadline=None)
@given(schedule=schedules, prefetch=prefetches)
def test_latency_closed_form_matches_simulation(schedule, prefetch):
    closed = schedule_latency(schedule, SPEC, prefetch).total_cycles
    simulated = _simulate_schedule(schedule, prefetch)
    assert closed == pytest.approx(simulated, rel=1e-9, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(schedule=schedules)
def test_prefetch_never_slower(schedule):
    pf = schedule_latency(schedule, SPEC, True).total_cycles
    serial = schedule_latency(schedule, SPEC, False).total_cycles
    assert pf <= serial + 1e-6


@settings(max_examples=200, deadline=None)
@given(schedule=schedules, prefetch=prefetches)
def test_latency_bounded_below_by_both_resources(schedule, prefetch):
    lat = schedule_latency(schedule, SPEC, prefetch)
    assert lat.total_cycles >= lat.compute_cycles - 1e-6
    if prefetch:
        assert lat.total_cycles >= lat.dma_cycles - 1e-6


# ----------------------------------------------------------------------
# Baseline invariants
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    layer=layers(),
    small=st.integers(2, 64),
    grow=st.integers(1, 64),
)
def test_baseline_traffic_monotone_in_buffers(layer, small, grow):
    workload = lower_layer(layer)
    small_cfg = ScaleSimConfig(
        ifmap_buf_bytes=small * 1024, filter_buf_bytes=small * 1024
    )
    big_cfg = ScaleSimConfig(
        ifmap_buf_bytes=(small + grow) * 1024,
        filter_buf_bytes=(small + grow) * 1024,
    )
    assert layer_traffic(workload, big_cfg).total <= layer_traffic(workload, small_cfg).total


@settings(max_examples=100, deadline=None)
@given(layer=layers())
def test_baseline_traffic_at_least_unique_footprints(layer):
    workload = lower_layer(layer)
    cfg = ScaleSimConfig()
    t = layer_traffic(workload, cfg)
    assert t.ifmap_reads >= workload.ifmap_unique
    assert t.filter_reads >= workload.filter_unique
    assert t.ofmap_writes == workload.ofmap_unique
