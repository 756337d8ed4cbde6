"""Per-layer evaluation: Algorithm 1 lines 7–9."""

import pytest

from repro.analyzer import plan_named_only
from repro.arch import AcceleratorSpec, kib
from repro.estimators import (
    estimate_accesses,
    estimate_latency,
    estimate_memory,
    evaluate_layer,
)
from repro.nn.model import make_model
from repro.policies import NAMED_POLICIES, policy_by_name


class TestEvaluateLayer:
    def test_all_results_fit_the_glb(self, conv_layer, spec64):
        for ev in evaluate_layer(conv_layer, spec64):
            assert ev.memory_bytes <= spec64.glb_bytes

    def test_infeasible_policies_absent(self, conv_layer, spec64):
        # P2 needs ~200 kB for this layer; it cannot appear at 64 kB.
        labels = {ev.policy_name for ev in evaluate_layer(conv_layer, spec64)}
        assert "p2" not in labels
        assert "intra" not in labels

    def test_feasible_policies_present_at_1mb(self, conv_layer, spec1m):
        labels = {ev.policy_name for ev in evaluate_layer(conv_layer, spec1m)}
        assert {"intra", "p1", "p2", "p3"} <= labels

    def test_prefetch_flag_disables_pf_variants(self, conv_layer, spec1m):
        evs = evaluate_layer(conv_layer, spec1m, allow_prefetch=False)
        assert all(not ev.prefetch for ev in evs)

    def test_fallback_only_when_empty_by_default(self, conv_layer, spec64):
        # The rescue-only plan's trail lists the tile search only for a
        # layer no named policy fits.
        plan = plan_named_only(make_model("one", [conv_layer]), spec64)
        policies = {c.policy for c in plan.explain().layers[0].candidates}
        assert "tiled" not in policies  # named policies fit at 64 kB

    def test_tile_search_always_evaluated(self, conv_layer, spec64):
        labels = {ev.policy_name for ev in evaluate_layer(conv_layer, spec64)}
        assert "tiled" in labels

    def test_fallback_rescues_tiny_glb(self, conv_layer):
        spec = AcceleratorSpec(glb_bytes=3000)
        plan = plan_named_only(make_model("one", [conv_layer]), spec)
        feasible = [c for c in plan.explain().layers[0].candidates if c.feasible]
        assert feasible, "tile search should rescue a tiny GLB"
        assert all(c.policy == "tiled" for c in feasible)
        assert plan.assignments[0].policy_name == "tiled"

    def test_bytes_scale_with_data_width(self, conv_layer):
        # Only the fixed policies: P4/P5 legitimately pick different block
        # sizes when the element budget shrinks, changing element traffic.
        narrow = AcceleratorSpec(glb_bytes=kib(2048), data_width_bits=8)
        wide = AcceleratorSpec(glb_bytes=kib(2048), data_width_bits=32)
        fixed = {"intra", "p1", "p2", "p3"}
        ev8 = {
            e.label: e
            for e in evaluate_layer(conv_layer, narrow)
            if e.policy_name in fixed
        }
        ev32 = {
            e.label: e
            for e in evaluate_layer(conv_layer, wide)
            if e.policy_name in fixed
        }
        common = set(ev8) & set(ev32)
        assert common
        for label in common:
            assert ev32[label].accesses_bytes == 4 * ev8[label].accesses_bytes
            assert ev32[label].memory_bytes == 4 * ev8[label].memory_bytes


class TestEstimateFunctions:
    def test_memory_bytes(self, conv_layer, spec1m):
        plan = policy_by_name("p1").plan(conv_layer, spec1m.glb_elems, False)
        assert estimate_memory(plan, spec1m) == plan.tiles.total

    def test_accesses_bytes(self, conv_layer, spec1m):
        plan = policy_by_name("p1").plan(conv_layer, spec1m.glb_elems, False)
        assert estimate_accesses(plan, spec1m) == plan.traffic.total

    def test_latency_positive(self, conv_layer, spec1m):
        plan = policy_by_name("p1").plan(conv_layer, spec1m.glb_elems, False)
        latency = estimate_latency(plan, spec1m)
        assert latency.total_cycles > 0
        assert latency.compute_cycles == pytest.approx(
            conv_layer.macs / spec1m.macs_per_cycle
        )

    def test_reads_writes_partition_accesses(self, conv_layer, spec1m):
        for ev in evaluate_layer(conv_layer, spec1m):
            assert ev.read_bytes + ev.write_bytes == ev.accesses_bytes


class TestSingleTransferEquivalence:
    """intra/p1/p2/p3 all transfer each element once for dense layers."""

    def test_equal_accesses(self, conv_layer, spec1m):
        totals = set()
        for name in ("intra", "p1", "p2", "p3"):
            plan = policy_by_name(name).plan(conv_layer, spec1m.glb_elems, False)
            totals.add(plan.traffic.total)
        assert len(totals) == 1

    def test_p4_p5_never_fewer_accesses(self, conv_layer, spec1m):
        reference = policy_by_name("p1").plan(conv_layer, spec1m.glb_elems, False)
        for name in ("p4", "p5"):
            plan = policy_by_name(name).plan(conv_layer, spec1m.glb_elems, False)
            assert plan.traffic.total >= reference.traffic.total
