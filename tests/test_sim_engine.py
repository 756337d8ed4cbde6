"""Step-level simulator: expansion, timing, traces, cross-checks."""

import pytest

from repro.analyzer import Objective, make_assignment, plan_heterogeneous
from repro.arch import AcceleratorSpec, kib
from repro.estimators import evaluate_layer, schedule_latency
from repro.nn.zoo import get_model
from repro.policies import LayerSchedule, StepGroup
from repro.sim import (
    TraceEvent,
    crosscheck_plan,
    expand_schedule,
    simulate_assignment,
    simulate_plan,
)

SPEC = AcceleratorSpec(glb_bytes=kib(1024))


class TestExpandSchedule:
    def test_expansion_counts(self):
        s = LayerSchedule(
            groups=(StepGroup(count=3, ifmap=1, macs=2), StepGroup(count=2, store=4))
        )
        steps = list(expand_schedule(s))
        assert len(steps) == 5
        assert steps[0].ifmap == 1 and steps[0].load == 1
        assert steps[4].store == 4

    def test_cap_enforced(self):
        s = LayerSchedule(groups=(StepGroup(count=100, macs=1),))
        with pytest.raises(ValueError, match="max_steps"):
            list(expand_schedule(s, max_steps=10))


class TestAssignmentSimulation:
    def _assignment(self, layer, spec, label=None):
        evs = evaluate_layer(layer, spec)
        ev = evs[0] if label is None else next(e for e in evs if e.label == label)
        return make_assignment(0, layer, ev, spec), ev

    def test_traffic_counted_exactly(self, conv_layer):
        assignment, ev = self._assignment(conv_layer, SPEC)
        result = simulate_assignment(assignment, SPEC)
        b = SPEC.bytes_per_elem
        assert result.dram_total_elems * b == ev.accesses_bytes

    def test_latency_matches_estimator(self, conv_layer):
        for ev in evaluate_layer(conv_layer, SPEC):
            assignment = make_assignment(0, conv_layer, ev, SPEC)
            result = simulate_assignment(assignment, SPEC)
            assert result.cycles == pytest.approx(ev.latency_cycles, rel=1e-6)

    def test_receives_removes_ifmap_traffic(self, conv_layer):
        evs = evaluate_layer(conv_layer, SPEC)
        ev = evs[0]
        plain = simulate_assignment(make_assignment(0, conv_layer, ev, SPEC), SPEC)
        received = simulate_assignment(
            make_assignment(0, conv_layer, ev, SPEC, receives=True), SPEC
        )
        assert (
            plain.dram_load_elems - received.dram_load_elems
            == ev.plan.traffic.ifmap_reads
        )

    def test_trace_events_recorded(self, small_conv):
        ev = evaluate_layer(small_conv, SPEC)[0]
        trace: list[TraceEvent] = []
        simulate_assignment(make_assignment(0, small_conv, ev, SPEC), SPEC, record_trace=trace)
        assert trace
        kinds = {e.kind for e in trace}
        assert kinds <= {"load_resident", "load_ifmap", "load_filters", "store"}
        moved = sum(e.elems for e in trace)
        assert moved == ev.plan.traffic.total

    def test_trace_times_nondecreasing_per_kind(self, small_conv):
        ev = evaluate_layer(small_conv, SPEC)[0]
        trace: list[TraceEvent] = []
        simulate_assignment(make_assignment(0, small_conv, ev, SPEC), SPEC, record_trace=trace)
        stores = [e.time for e in trace if e.kind == "store"]
        assert stores == sorted(stores)

    def test_compute_busy_matches_macs(self, small_conv):
        ev = evaluate_layer(small_conv, SPEC)[0]
        result = simulate_assignment(make_assignment(0, small_conv, ev, SPEC), SPEC)
        assert result.compute_busy_cycles == pytest.approx(
            small_conv.macs / SPEC.macs_per_cycle
        )


class TestPlanSimulation:
    @pytest.mark.parametrize("objective", [Objective.ACCESSES, Objective.LATENCY])
    def test_crosscheck_small_model(self, objective):
        plan = plan_heterogeneous(
            get_model("MobileNet"), AcceleratorSpec(glb_bytes=kib(64)), objective
        )
        check, sim = crosscheck_plan(plan)
        assert check.traffic_matches
        assert check.latency_rel_error < 1e-5
        assert len(sim.layers) == len(plan.model)

    def test_crosscheck_with_interlayer(self):
        plan = plan_heterogeneous(
            get_model("MobileNet"),
            AcceleratorSpec(glb_bytes=kib(512)),
            interlayer=True,
        )
        check, _ = crosscheck_plan(plan)
        assert check.traffic_matches
        assert check.latency_rel_error < 1e-5

    def test_plan_totals_sum_layers(self):
        plan = plan_heterogeneous(
            get_model("MobileNet"), AcceleratorSpec(glb_bytes=kib(64))
        )
        result = simulate_plan(plan)
        assert result.total_cycles == pytest.approx(
            sum(l.cycles for l in result.layers)
        )
        assert result.dram_total_elems == (
            result.dram_load_elems + result.dram_store_elems
        )

    def test_layer_results_carry_the_model_layer_names(self):
        # Candidates are shared per shape: ResNet18's 21 layers have 12.
        model = get_model("ResNet18")
        assert len({layer.shape for layer in model.layers}) == 12
        plan = plan_heterogeneous(model, AcceleratorSpec(glb_bytes=kib(128)))
        result = simulate_plan(plan)
        assert [layer.name for layer in result.layers] == [
            layer.name for layer in model.layers
        ]
