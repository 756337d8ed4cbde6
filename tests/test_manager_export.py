"""MemoryManager facade and plan export."""

import json

import pytest

from repro.analyzer import Objective, load_plan_dict, plan_to_dict, save_plan
from repro.arch import AcceleratorSpec, kib
from repro.estimators import evaluate_layer
from repro.manager import BaselineComparison, MemoryManager
from repro.nn import load_model, save_model
from repro.nn.zoo import get_model


@pytest.fixture
def manager():
    return MemoryManager(AcceleratorSpec(glb_bytes=kib(64)))


class TestMemoryManager:
    def test_het_plan(self, manager):
        plan = manager.plan(get_model("MobileNet"))
        assert plan.scheme == "het"
        assert plan.objective is Objective.ACCESSES

    def test_hom_plan(self, manager):
        plan = manager.plan(get_model("MobileNet"), scheme="hom")
        assert plan.scheme.startswith("hom(")

    def test_specific_family(self, manager):
        plan = manager.plan(get_model("MobileNet"), scheme="hom(p1)")
        assert plan.scheme == "hom(p1)"

    def test_unknown_scheme(self, manager):
        with pytest.raises(ValueError, match="unknown scheme"):
            manager.plan(get_model("MobileNet"), scheme="magic")

    @pytest.mark.parametrize("scheme", ["hom(p99)", "magic"])
    def test_unknown_scheme_rejected_before_cache_work(self, manager, scheme, monkeypatch):
        from repro.experiments import cache

        def no_cache_work(*args, **kwargs):
            raise AssertionError("cache touched before the scheme was checked")

        monkeypatch.setattr(cache, "plan_cache_key", no_cache_work)
        monkeypatch.setattr(cache, "lookup", no_cache_work)
        with pytest.raises(ValueError, match="unknown scheme"):
            manager.plan_cached(get_model("MobileNet"), scheme=scheme)

    def test_interlayer_requires_het(self, manager):
        with pytest.raises(ValueError, match="het"):
            manager.plan(get_model("MobileNet"), scheme="hom", interlayer=True)

    def test_latency_objective(self, manager):
        acc = manager.plan(get_model("MobileNet"), Objective.ACCESSES)
        lat = manager.plan(get_model("MobileNet"), Objective.LATENCY)
        assert lat.total_latency_cycles <= acc.total_latency_cycles

    def test_plan_from_file(self, manager, tmp_path):
        path = tmp_path / "model.json"
        save_model(get_model("MobileNet"), path)
        plan = manager.plan(load_model(path))
        assert plan.model.name == "MobileNet"
        direct = manager.plan(get_model("MobileNet"))
        assert plan.total_accesses_bytes == direct.total_accesses_bytes

    def test_evaluate_layer(self, manager):
        evs = evaluate_layer(get_model("MobileNet")[0], manager.spec)
        assert evs
        assert all(ev.memory_bytes <= kib(64) for ev in evs)

    def test_compare_with_baseline(self, manager):
        cmp = manager.compare_with_baseline(get_model("ResNet18"))
        assert isinstance(cmp, BaselineComparison)
        assert set(cmp.baselines) == {"sa_25_75", "sa_50_50", "sa_75_25"}
        assert cmp.accesses_reduction_pct > 50.0  # paper: ~80% at 64 kB
        assert cmp.best_baseline_label in cmp.baselines


class TestPlanExport:
    def test_round_trip_file(self, manager, tmp_path):
        plan = manager.plan(get_model("MobileNet"))
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        data = load_plan_dict(path)
        assert data["model"] == "MobileNet"
        assert len(data["layers"]) == 28
        assert data["totals"]["accesses_bytes"] == plan.total_accesses_bytes

    def test_layer_records_complete(self, manager):
        plan = manager.plan(get_model("MobileNet"), interlayer=True)
        data = plan_to_dict(plan)
        for record, assignment in zip(data["layers"], plan.assignments):
            assert record["layer"] == assignment.layer.name
            assert record["policy"] == assignment.policy_name
            assert record["prefetch"] == assignment.prefetch
            assert record["donates_ofmap_on_chip"] == assignment.donates
            tiles = record["tiles_bytes"]
            assert tiles["ifmap"] >= 0 and tiles["filters"] >= 0

    def test_accelerator_captured(self, manager):
        data = plan_to_dict(manager.plan(get_model("MobileNet")))
        assert data["accelerator"]["glb_bytes"] == kib(64)
        assert data["accelerator"]["ops_per_cycle"] == 512

    def test_json_serializable(self, manager):
        data = plan_to_dict(manager.plan(get_model("MobileNet")))
        json.dumps(data)  # must not raise

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 42}))
        with pytest.raises(ValueError, match="schema"):
            load_plan_dict(path)
