"""Tile-search fallback: fits tiny budgets, never beats the compulsory minimum."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LayerKind, LayerSpec
from repro.policies import FALLBACK_POLICY, TiledFallback

from .tiled_reference import reference_tiled_plan

BIG = 1 << 40


def _min_traffic(layer):
    """Compulsory traffic: touched padded ifmap + filters + ofmap, once each."""
    from repro.policies.base import Policy

    return Policy.ifmap_pass_elems(layer) + layer.filter_elems + layer.ofmap_elems


class TestTiledFallback:
    def test_is_the_registered_fallback(self):
        assert isinstance(FALLBACK_POLICY, TiledFallback)

    def test_fits_budget_too_small_for_named_policies(self, conv_layer):
        # Smaller than P5's n=1 footprint (needs a full 56x56 ofmap channel).
        tiny = 1500
        plan = TiledFallback().plan(conv_layer, tiny, False)
        assert plan is not None
        assert plan.memory_elems <= tiny

    def test_traffic_at_least_compulsory(self, conv_layer):
        plan = TiledFallback().plan(conv_layer, 1500, False)
        assert plan.traffic.total >= _min_traffic(conv_layer)

    def test_large_budget_reaches_near_minimum(self, conv_layer):
        plan = TiledFallback().plan(conv_layer, BIG, False)
        # With everything fitting, the band search converges to one pass.
        assert plan.traffic.total <= 2 * _min_traffic(conv_layer)

    def test_schedule_matches_traffic(self, conv_layer, dw_layer, pw_layer, fc_layer):
        for layer in (conv_layer, dw_layer, pw_layer, fc_layer):
            for budget in (2_000, 50_000, BIG):
                plan = TiledFallback().plan(layer, budget, False)
                if plan is None:
                    continue
                s, t = plan.schedule, plan.traffic
                assert s.total_ifmap_load == t.ifmap_reads
                assert s.total_filter_load == t.filter_reads
                assert s.total_store == t.ofmap_writes + t.ofmap_spills
                assert s.total_macs == layer.macs

    def test_monotone_in_budget(self, conv_layer):
        last = None
        for budget in (1_000, 2_000, 8_000, 64_000, 1 << 30):
            plan = TiledFallback().plan(conv_layer, budget, False)
            if plan is None:
                continue
            if last is not None:
                assert plan.traffic.total <= last
            last = plan.traffic.total

    def test_prefetch_variant_fits_half(self, conv_layer):
        plain = TiledFallback().plan(conv_layer, 4_000, False)
        pf = TiledFallback().plan(conv_layer, 4_000, True)
        assert plain is not None and pf is not None
        assert pf.memory_elems <= 4_000

    def test_infeasible_only_below_absolute_floor(self, small_conv):
        # One row band, one filter, one channel window still needs space.
        assert TiledFallback().plan(small_conv, 10, False) is None

    def test_depthwise(self, dw_layer):
        plan = TiledFallback().plan(dw_layer, 1_000, False)
        assert plan is not None
        assert plan.traffic.total >= _min_traffic(dw_layer)


class TestWidthDirection:
    """Fig. 2a's width-wise access direction (engaged under extreme pressure)."""

    def _wide_layer(self):
        from repro.nn import LayerKind, LayerSpec

        return LayerSpec("wide", LayerKind.CONV, 8, 500, 1, 3, 3, 1, 1, 1)

    def test_width_tiling_engages_when_needed(self):
        plan = TiledFallback().plan(self._wide_layer(), 600, False)
        assert plan is not None
        assert plan.tile_shape is not None
        assert plan.tile_shape[1] < 500  # column bands in use
        assert plan.memory_elems <= 600

    def test_full_width_preferred_when_it_fits(self, conv_layer):
        plan = TiledFallback().plan(conv_layer, 64_000, False)
        assert plan is not None
        assert plan.tile_shape[1] == conv_layer.out_w

    def test_width_halo_costs_traffic(self):
        layer = self._wide_layer()
        wide_budget = TiledFallback().plan(layer, 100_000, False)
        tight_budget = TiledFallback().plan(layer, 600, False)
        assert tight_budget.traffic.total > wide_budget.traffic.total

    def test_schedule_consistency_with_width_bands(self):
        layer = self._wide_layer()
        plan = TiledFallback().plan(layer, 600, False)
        s, t = plan.schedule, plan.traffic
        assert s.total_ifmap_load == t.ifmap_reads
        assert s.total_filter_load == t.filter_reads
        assert s.total_store == t.ofmap_writes
        assert s.total_macs == layer.macs


@st.composite
def search_layers(draw) -> LayerSpec:
    """Conv, depth-wise and 1×1 layers, strides 1–3, including filters
    larger than the unpadded input (covered only thanks to padding)."""
    kind = draw(
        st.sampled_from([LayerKind.CONV, LayerKind.DEPTHWISE, LayerKind.POINTWISE])
    )
    if kind is LayerKind.POINTWISE:
        f_h = f_w = 1
        padding = 0
    else:
        f_h = draw(st.integers(1, 7))
        f_w = draw(st.integers(1, 7))
        padding = draw(st.integers(0, 3))
    in_h = draw(st.integers(max(1, f_h - 2 * padding), 40))
    in_w = draw(st.integers(max(1, f_w - 2 * padding), 40))
    return LayerSpec(
        name="fuzz",
        kind=kind,
        in_h=in_h,
        in_w=in_w,
        in_c=draw(st.integers(1, 48)),
        f_h=f_h,
        f_w=f_w,
        num_filters=1 if kind is LayerKind.DEPTHWISE else draw(st.integers(1, 48)),
        stride=draw(st.integers(1, 3)),
        padding=padding,
    )


@settings(max_examples=200, deadline=None)
@given(
    layer=search_layers(),
    budget=st.one_of(st.integers(1, 1_000), st.integers(1_000, 200_000)),
    prefetch=st.booleans(),
)
def test_grid_search_matches_reference_loop(layer, budget, prefetch):
    """The vectorized grid search picks the reference loop's winner, tie-break
    included, and its capacity signature names that winner."""
    expected = reference_tiled_plan(layer, budget, prefetch)
    policy = TiledFallback()
    assert policy.plan(layer, budget, prefetch) == expected
    signature = policy.capacity_signature(layer, budget, prefetch)
    if expected is None:
        assert signature is None
    else:
        assert signature == (expected.block_size, *expected.tile_shape)
