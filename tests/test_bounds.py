"""Communication lower bounds and the optimality-gap experiment."""

import pytest

from repro.analyzer import plan_heterogeneous
from repro.arch import AcceleratorSpec, kib
from repro.estimators import (
    layer_bound,
    model_bound,
    model_bound_interlayer,
    optimality_gap,
)
from repro.experiments import bounds as bounds_experiment
from repro.nn.zoo import get_model, paper_models


class TestLayerBound:
    def test_compulsory_terms(self, conv_layer):
        bound = layer_bound(conv_layer, kib(64))
        expected = 58 * 58 * 64 + conv_layer.filter_elems + conv_layer.ofmap_elems
        assert bound.compulsory == expected

    def test_pebbling_grows_as_buffer_shrinks(self, conv_layer):
        small = layer_bound(conv_layer, 1_000)
        large = layer_bound(conv_layer, 1_000_000)
        assert small.pebbling > large.pebbling

    def test_combined_is_max(self, conv_layer):
        bound = layer_bound(conv_layer, 100)
        assert bound.combined == max(bound.compulsory, bound.pebbling)

    def test_rejects_bad_buffer(self, conv_layer):
        with pytest.raises(ValueError):
            layer_bound(conv_layer, 0)


class TestModelBounds:
    @pytest.mark.parametrize("glb_kb", [64, 1024])
    def test_every_plan_respects_the_bound(self, glb_kb):
        """No plan may move less than the lower bound — ever."""
        spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
        for model in paper_models():
            bound = model_bound(model, spec)
            plan = plan_heterogeneous(model, spec)
            assert plan.total_accesses_bytes >= bound, model.name

    @pytest.mark.parametrize("glb_kb", [64, 1024])
    def test_interlayer_plans_respect_their_bound(self, glb_kb):
        spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
        for model in paper_models():
            bound = model_bound_interlayer(model, spec)
            plan = plan_heterogeneous(model, spec, interlayer=True)
            assert plan.total_accesses_bytes >= bound, model.name

    @pytest.mark.parametrize("width", [16, 32])
    @pytest.mark.parametrize("glb_bytes", [64, kib(1), kib(64)])
    def test_bounds_count_the_buffer_in_elements(self, glb_bytes, width):
        """A ``width / 8`` times larger GLB at ``width`` bits holds the same
        elements, so each bound is the 8-bit one times ``width / 8`` bytes.
        (At small buffers the pebbling term dominates, and it divides by the
        buffer's element count.)"""
        scale = width // 8
        narrow = AcceleratorSpec(glb_bytes=glb_bytes)
        wide = AcceleratorSpec(glb_bytes=glb_bytes * scale, data_width_bits=width)
        for model in paper_models():
            for bound in (model_bound, model_bound_interlayer):
                assert bound(model, wide) == scale * bound(model, narrow), model.name

    def test_interlayer_bound_is_weaker(self):
        spec = AcceleratorSpec(glb_bytes=kib(256))
        for model in paper_models():
            assert model_bound_interlayer(model, spec) <= model_bound(model, spec)

    def test_het_is_near_optimal_at_large_buffers(self):
        """The headline extension finding: Het sits on the bound."""
        spec = AcceleratorSpec(glb_bytes=kib(1024))
        for model in paper_models():
            gap = optimality_gap(plan_heterogeneous(model, spec))
            assert gap.gap_pct <= 1.0, (model.name, gap.gap_pct)

    def test_gap_small_even_at_64k(self):
        spec = AcceleratorSpec(glb_bytes=kib(64))
        for model in paper_models():
            gap = optimality_gap(plan_heterogeneous(model, spec))
            assert gap.gap_pct <= 10.0, (model.name, gap.gap_pct)


class TestBoundsExperiment:
    def test_rows_and_rendering(self):
        rows = bounds_experiment.run(models=("ResNet18",), glb_sizes_kb=(64, 1024))
        text = bounds_experiment.to_table(rows).render()
        assert "ResNet18" in text and "gap" in text
        for row in rows:
            assert row.gap_pct >= -1e-9
            assert row.il_gap_pct >= -1e-9
