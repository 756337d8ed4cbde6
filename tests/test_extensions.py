"""Extensions: extended zoo, resolution override, Pareto, charts."""

import pytest

from repro.analyzer import ParetoPoint, pareto_frontier, plan_heterogeneous, plan_weighted
from repro.arch import AcceleratorSpec, kib
from repro.nn import LayerKind
from repro.nn.zoo import ALL_MODEL_NAMES, PAPER_MODEL_NAMES, get_model
from repro.report import BarChart, bar_chart, sparkline
from repro.scalesim import baseline_config, simulate


class TestExtendedZoo:
    def test_registry_includes_extensions(self):
        assert set(PAPER_MODEL_NAMES) < set(ALL_MODEL_NAMES)
        assert {"AlexNet", "VGG16", "SqueezeNet"} <= set(ALL_MODEL_NAMES)

    def test_vgg16_textbook_numbers(self):
        model = get_model("VGG16")
        assert model.num_layers == 16
        assert model.total_weight_elems == pytest.approx(138.3e6, rel=0.01)
        assert model.total_macs == pytest.approx(15.5e9, rel=0.01)

    def test_alexnet_shapes(self):
        model = get_model("AlexNet")
        assert model.num_layers == 8
        conv1 = model.find("conv1")
        assert (conv1.out_h, conv1.out_c) == (55, 96)
        assert model.find("fc6").in_c == 6 * 6 * 256

    def test_squeezenet_fire_concat(self):
        model = get_model("SqueezeNet")
        # fire2 outputs 64+64=128 channels consumed by fire3's squeeze.
        assert model.find("fire3_squeeze").in_c == 128
        assert model.kind_histogram()[LayerKind.POINTWISE] > 10

    def test_extended_models_plan(self):
        spec = AcceleratorSpec(glb_bytes=kib(128))
        for name in ("AlexNet", "VGG16", "SqueezeNet"):
            plan = plan_heterogeneous(get_model(name), spec)
            assert plan.max_memory_bytes <= spec.glb_bytes

    def test_resolution_override(self):
        small = get_model("ResNet18", input_size=160)
        native = get_model("ResNet18")
        assert small[0].in_h == 160
        assert small.num_layers == native.num_layers
        assert small.total_macs < native.total_macs
        # Weights are resolution-independent.
        assert small.total_weight_elems == native.total_weight_elems

    def test_resolution_override_cached_separately(self):
        assert get_model("MobileNet", input_size=192) is get_model(
            "MobileNet", input_size=192
        )
        assert get_model("MobileNet", input_size=192) is not get_model("MobileNet")


class TestPareto:
    @pytest.fixture(scope="class")
    def frontier(self):
        return pareto_frontier(
            get_model("MobileNet"), AcceleratorSpec(glb_bytes=kib(64)), num_points=7
        )

    def test_endpoints_match_objectives(self, frontier):
        spec = AcceleratorSpec(glb_bytes=kib(64))
        model = get_model("MobileNet")
        from repro.analyzer import Objective

        het_a = plan_heterogeneous(model, spec, Objective.ACCESSES)
        het_l = plan_heterogeneous(model, spec, Objective.LATENCY)
        assert frontier[0].accesses_bytes == het_a.total_accesses_bytes
        assert frontier[-1].latency_cycles == pytest.approx(
            het_l.total_latency_cycles, rel=1e-9
        )

    def test_frontier_sorted_and_nondominated(self, frontier):
        for a, b in zip(frontier, frontier[1:]):
            assert a.accesses_bytes <= b.accesses_bytes
            assert a.latency_cycles >= b.latency_cycles  # trade-off shape
        for p in frontier:
            assert not any(q.dominates(p) for q in frontier if q is not p)

    def test_frontier_has_intermediate_points(self, frontier):
        assert len(frontier) >= 3  # a real trade-off, not just endpoints

    def test_weighted_plan_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            plan_weighted(
                get_model("MobileNet"), AcceleratorSpec(glb_bytes=kib(64)), 1.5
            )

    def test_num_points_validation(self):
        with pytest.raises(ValueError):
            pareto_frontier(
                get_model("MobileNet"), AcceleratorSpec(glb_bytes=kib(64)), 1
            )

    def test_dominates(self):
        plan = plan_heterogeneous(
            get_model("MobileNet"), AcceleratorSpec(glb_bytes=kib(64))
        )
        a = ParetoPoint(0, 10, 10.0, plan)
        b = ParetoPoint(0, 12, 10.0, plan)
        c = ParetoPoint(0, 10, 10.0, plan)
        assert a.dominates(b)
        assert not a.dominates(c)


class TestCharts:
    def test_bar_chart_renders_all_entries(self):
        chart = bar_chart("T", ["a", "b"], {"x": [1.0, 2.0], "y": [3.0, 4.0]})
        text = chart.render()
        assert "T" in text
        assert text.count("|") == 4
        assert "legend:" in text

    def test_bar_chart_arity_checked(self):
        with pytest.raises(ValueError):
            bar_chart("T", ["a", "b"], {"x": [1.0]})

    def test_negative_rejected(self):
        chart = BarChart(title="T")
        with pytest.raises(ValueError):
            chart.add("g", "s", -1.0)

    def test_empty_chart(self):
        assert "(no data)" in BarChart(title="T").render()

    def test_sparkline(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert len(sparkline(list(range(100)), width=10)) == 10


class TestDeepResNets:
    def test_resnet50_textbook_numbers(self):
        model = get_model("ResNet50")
        assert model.num_layers == 54  # 48 convs + 4 projections + stem + fc
        assert model.total_weight_elems == pytest.approx(25.5e6, rel=0.02)
        assert model.total_macs == pytest.approx(4.1e9, rel=0.10)

    def test_resnet34_textbook_numbers(self):
        model = get_model("ResNet34")
        assert model.num_layers == 37  # 32 convs + 3 projections + stem + fc
        assert model.total_weight_elems == pytest.approx(21.8e6, rel=0.02)
        assert model.total_macs == pytest.approx(3.6e9, rel=0.05)

    def test_resnet50_plans_at_64k(self):
        spec = AcceleratorSpec(glb_bytes=kib(64))
        plan = plan_heterogeneous(get_model("ResNet50"), spec)
        assert plan.max_memory_bytes <= spec.glb_bytes


class TestStallAwareBaseline:
    def test_stalls_never_reduce_latency(self):
        cfg = baseline_config(kib(64), 0.5)
        result = simulate(get_model("ResNet18"), cfg)
        assert result.total_cycles_with_stalls(16.0) >= result.total_cycles

    def test_infinite_bandwidth_recovers_zero_stall(self):
        cfg = baseline_config(kib(64), 0.5)
        result = simulate(get_model("MobileNet"), cfg)
        assert result.total_cycles_with_stalls(1e12) == pytest.approx(
            result.total_cycles
        )

    def test_bandwidth_validation(self):
        cfg = baseline_config(kib(64), 0.5)
        result = simulate(get_model("MobileNet"), cfg)
        with pytest.raises(ValueError):
            result.total_cycles_with_stalls(0)
