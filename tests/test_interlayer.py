"""Inter-layer reuse (§5.4): transforms, feasibility, opportunistic and DP."""

import pytest

from repro.analyzer import (
    Objective,
    make_assignment,
    plan_heterogeneous,
    required_memory_elems,
    transformed_schedule,
)
from repro.arch import AcceleratorSpec, kib
from repro.estimators import evaluate_layer
from repro.nn import ModelBuilder
from repro.nn.zoo import get_model
from repro.policies import LayerSchedule, StepGroup


def _chain_model(channels=(8, 8, 8), hw=8):
    """A small pure chain of 3×3 convolutions (all pairs sequential)."""
    b = ModelBuilder("chain", (hw, hw, 4))
    for i, c in enumerate(channels):
        b.conv(f"c{i}", f=3, n=c)
    return b.build()


class TestTransformedSchedule:
    def _schedule(self):
        return LayerSchedule(
            groups=(StepGroup(count=2, ifmap=10, filters=5, macs=100, store=7),),
            resident_ifmap=20,
            resident_filters=30,
        )

    def test_identity(self):
        s = self._schedule()
        assert transformed_schedule(s, False, False) is s

    def test_receives_strips_ifmap(self):
        s = transformed_schedule(self._schedule(), True, False)
        assert s.total_ifmap_load == 0
        assert s.total_filter_load == 30 + 2 * 5
        assert s.total_store == 14

    def test_donates_strips_stores(self):
        s = transformed_schedule(self._schedule(), False, True)
        assert s.total_store == 0
        assert s.total_ifmap_load == 20 + 2 * 10

    def test_both(self):
        s = transformed_schedule(self._schedule(), True, True)
        assert s.total_ifmap_load == 0
        assert s.total_store == 0
        assert s.total_macs == 200


class TestRequiredMemory:
    def test_plain_equals_plan_memory(self, conv_layer, spec1m):
        ev = evaluate_layer(conv_layer, spec1m)[0]
        assert required_memory_elems(ev, False, False) == ev.plan.memory_elems

    def test_receives_uses_full_unpadded_ifmap(self, conv_layer, spec1m):
        ev = evaluate_layer(conv_layer, spec1m)[0]
        factor = 2 if ev.prefetch else 1
        expected = (
            conv_layer.ifmap_elems
            + factor * ev.plan.tiles.filters
            + factor * ev.plan.tiles.ofmap
        )
        assert required_memory_elems(ev, True, False) == expected

    def test_donates_uses_full_ofmap(self, conv_layer, spec1m):
        ev = evaluate_layer(conv_layer, spec1m)[0]
        factor = 2 if ev.prefetch else 1
        expected = (
            factor * ev.plan.tiles.ifmap
            + factor * ev.plan.tiles.filters
            + conv_layer.ofmap_elems
        )
        assert required_memory_elems(ev, False, True) == expected


class TestAssignmentMetrics:
    def test_receives_removes_ifmap_reads(self, conv_layer, spec1m):
        ev = evaluate_layer(conv_layer, spec1m)[0]
        plain = make_assignment(0, conv_layer, ev, spec1m)
        received = make_assignment(0, conv_layer, ev, spec1m, receives=True)
        b = spec1m.bytes_per_elem
        assert (
            plain.read_bytes - received.read_bytes
            == ev.plan.traffic.ifmap_reads * b
        )

    def test_donates_removes_ofmap_writes(self, conv_layer, spec1m):
        ev = evaluate_layer(conv_layer, spec1m)[0]
        plain = make_assignment(0, conv_layer, ev, spec1m)
        donated = make_assignment(0, conv_layer, ev, spec1m, donates=True)
        assert donated.write_bytes == 0
        assert donated.accesses_bytes < plain.accesses_bytes

    def test_adjustments_never_increase_latency(self, conv_layer, spec1m):
        for ev in evaluate_layer(conv_layer, spec1m):
            plain = make_assignment(0, conv_layer, ev, spec1m)
            for receives, donates in ((True, False), (False, True), (True, True)):
                adj = make_assignment(0, conv_layer, ev, spec1m, receives=receives, donates=donates)
                assert adj.latency_cycles <= plain.latency_cycles + 1e-9


class TestInterlayerPlans:
    @pytest.mark.parametrize("mode", ["opportunistic", "joint"])
    def test_never_worse_than_disabled(self, mode):
        model = get_model("MnasNet")
        for glb_kb in (64, 512):
            spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
            base = plan_heterogeneous(model, spec)
            il = plan_heterogeneous(model, spec, interlayer=True, interlayer_mode=mode)
            assert il.total_accesses_bytes <= base.total_accesses_bytes

    def test_joint_not_worse_than_opportunistic(self):
        model = get_model("MnasNet")
        for glb_kb in (64, 128):
            spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
            opp = plan_heterogeneous(
                model, spec, interlayer=True, interlayer_mode="opportunistic"
            )
            joint = plan_heterogeneous(
                model, spec, interlayer=True, interlayer_mode="joint"
            )
            assert joint.total_accesses_bytes <= opp.total_accesses_bytes

    def test_coverage_grows_with_buffer(self):
        model = get_model("MnasNet")
        coverages = [
            plan_heterogeneous(
                model,
                AcceleratorSpec(glb_bytes=kib(g)),
                interlayer=True,
            ).interlayer_coverage
            for g in (64, 256, 1024)
        ]
        assert coverages == sorted(coverages)
        assert coverages[-1] >= 0.9  # ~98% in the paper at 1 MB

    def test_chain_fully_donated_with_big_buffer(self):
        model = _chain_model()
        spec = AcceleratorSpec(glb_bytes=kib(1024))
        plan = plan_heterogeneous(model, spec, interlayer=True)
        # Every pair is sequential and everything fits: full coverage.
        assert plan.interlayer_pairs_possible == 2
        assert plan.interlayer_pairs_applied == 2

    def test_last_layer_never_donates(self):
        model = _chain_model()
        spec = AcceleratorSpec(glb_bytes=kib(1024))
        for mode in ("opportunistic", "joint"):
            plan = plan_heterogeneous(
                model, spec, interlayer=True, interlayer_mode=mode
            )
            assert not plan.assignments[-1].donates

    def test_receive_follows_donate(self):
        model = get_model("MnasNet")
        spec = AcceleratorSpec(glb_bytes=kib(512))
        plan = plan_heterogeneous(model, spec, interlayer=True)
        for i, a in enumerate(plan.assignments[:-1]):
            assert plan.assignments[i + 1].receives == a.donates

    def test_donation_only_on_sequential_pairs(self):
        model = get_model("ResNet18")
        spec = AcceleratorSpec(glb_bytes=kib(1024))
        plan = plan_heterogeneous(model, spec, interlayer=True)
        for i, a in enumerate(plan.assignments):
            if a.donates:
                assert model.feeds_next(i)

    def test_memory_still_respected(self):
        model = get_model("MnasNet")
        spec = AcceleratorSpec(glb_bytes=kib(256))
        plan = plan_heterogeneous(model, spec, interlayer=True)
        assert all(a.memory_bytes <= spec.glb_bytes for a in plan.assignments)
