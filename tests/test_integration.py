"""End-to-end integration: the full Fig. 4 pipeline on real models.

These tests exercise the library the way a user (or the paper's
evaluation) would: model description file → memory manager → execution
plan → validation simulation → export, plus cross-cutting consistency
between independent subsystems.
"""

import json

import pytest

from repro import AcceleratorSpec, Objective, plan_heterogeneous
from repro.analyzer import plan_to_dict, save_plan
from repro.arch import kib
from repro.energy import plan_energy
from repro.manager import MemoryManager
from repro.nn import load_model, save_model
from repro.nn.zoo import get_model, paper_models
from repro.scalesim import lower_model, model_to_topology_csv
from repro.sim import crosscheck_plan


class TestFullPipeline:
    """Model JSON -> plan -> simulate -> export, end to end."""

    def test_json_to_validated_plan(self, tmp_path):
        # 1. Export a model description (the Fig. 4 input artifact).
        model_path = tmp_path / "resnet18.json"
        save_model(get_model("ResNet18"), model_path)

        # 2. Load it back and plan it through the manager facade.
        manager = MemoryManager(AcceleratorSpec(glb_bytes=kib(64)))
        plan = manager.plan(load_model(model_path))

        # 3. Execute the plan in the step-level simulator.
        check, sim = crosscheck_plan(plan)
        assert check.traffic_matches
        assert check.latency_rel_error < 1e-5

        # 4. Export the compiler schedule and verify its totals agree
        #    with the simulation, closing the loop.
        plan_path = tmp_path / "plan.json"
        save_plan(plan, plan_path)
        exported = json.loads(plan_path.read_text())
        assert exported["totals"]["accesses_bytes"] == (
            sim.dram_total_elems * plan.spec.bytes_per_elem
        )

    def test_plan_beats_baseline_on_both_metrics_for_dw_models(self):
        manager = MemoryManager(AcceleratorSpec(glb_bytes=kib(64)))
        comparison = manager.compare_with_baseline(
            get_model("MnasNet"), Objective.LATENCY
        )
        assert comparison.accesses_reduction_pct > 0
        assert comparison.latency_reduction_pct > 0


class TestAllModelsAllSizes:
    """The paper's full configuration matrix stays feasible and sane."""

    @pytest.mark.parametrize("glb_kb", [64, 128, 256, 512, 1024])
    def test_every_model_plans(self, glb_kb):
        spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
        for model in paper_models():
            plan = plan_heterogeneous(model, spec)
            assert len(plan.assignments) == len(model)
            assert plan.max_memory_bytes <= spec.glb_bytes
            # Off-chip traffic can never beat reading weights once.
            assert plan.total_accesses_bytes >= model.total_weight_elems

    def test_accesses_nonincreasing_in_glb(self):
        for model in paper_models():
            previous = None
            for glb_kb in (64, 128, 256, 512, 1024):
                plan = plan_heterogeneous(model, AcceleratorSpec(glb_bytes=kib(glb_kb)))
                if previous is not None:
                    assert plan.total_accesses_bytes <= previous * 1.001, model.name
                previous = plan.total_accesses_bytes


class TestCrossSubsystemConsistency:
    def test_macs_agree_between_nn_and_scalesim(self):
        """The GEMM lowering must preserve the MAC count exactly."""
        for model in paper_models():
            lowered = lower_model(model)
            assert sum(w.macs for w in lowered) == model.total_macs

    def test_topology_csv_row_count(self):
        for model in paper_models():
            csv = model_to_topology_csv(model)
            assert csv.count("\n") == len(model) + 1

    def test_energy_ordering_follows_accesses(self):
        """Same model, same spec: fewer accesses -> less energy."""
        model = get_model("ResNet18")
        small = plan_heterogeneous(model, AcceleratorSpec(glb_bytes=kib(64)))
        large = plan_heterogeneous(model, AcceleratorSpec(glb_bytes=kib(1024)))
        if small.total_accesses_bytes > large.total_accesses_bytes:
            assert plan_energy(small).total_pj > plan_energy(large).total_pj

    def test_model_json_preserves_plan_results(self, tmp_path):
        """Planning a round-tripped model gives identical results."""
        spec = AcceleratorSpec(glb_bytes=kib(64))
        original = get_model("MobileNetV2")
        path = tmp_path / "m.json"
        save_model(original, path)
        clone = load_model(path)
        plan_a = plan_heterogeneous(original, spec)
        plan_b = plan_heterogeneous(clone, spec)
        assert plan_a.total_accesses_bytes == plan_b.total_accesses_bytes
        assert plan_a.total_latency_cycles == plan_b.total_latency_cycles
        assert [a.label for a in plan_a] == [b.label for b in plan_b]
