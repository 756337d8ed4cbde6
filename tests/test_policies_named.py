"""The six named policies (§3.2): tile math, traffic, feasibility.

The ``small_conv`` fixture (8×8×4 in, 3×3, 6 filters, same padding) keeps
the arithmetic hand-checkable:

* padded ifmap 10×10×4 = 400, unpadded 256
* filters 3·3·4·6 = 216, per filter 36
* ofmap 8×8×6 = 384, MACs = 8·8·6·3·3·4 = 13824
* sliding window 3·10·4 = 120; covered rows = 3 + 7 = 10
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.policies
from repro.policies import (
    FALLBACK_POLICY,
    FilterReuse,
    IfmapReuse,
    IntraLayerReuse,
    PartialIfmapReuse,
    PartialPerChannelReuse,
    PerChannelReuse,
    NAMED_POLICIES,
    Policy,
    policy_by_name,
)

BIG = 1 << 40


def _consistent(plan, layer):
    """Schedule totals must equal traffic totals and layer MACs."""
    s, t = plan.schedule, plan.traffic
    assert s.total_ifmap_load == t.ifmap_reads
    assert s.total_filter_load == t.filter_reads
    assert s.total_store == t.ofmap_writes + t.ofmap_spills
    assert s.total_macs == layer.macs


class TestIntra:
    def test_tiles(self, small_conv):
        plan = IntraLayerReuse().plan(small_conv, BIG, False)
        assert plan.tiles.ifmap == 256
        assert plan.tiles.filters == 216
        assert plan.tiles.ofmap == 384
        assert plan.memory_elems == 856

    def test_single_transfer_traffic(self, small_conv):
        plan = IntraLayerReuse().plan(small_conv, BIG, False)
        # ifmap traffic counts padding (10·10·4), everything moves once.
        assert plan.traffic.ifmap_reads == 400
        assert plan.traffic.filter_reads == 216
        assert plan.traffic.ofmap_writes == 384
        _consistent(plan, small_conv)

    def test_feasibility_boundary(self, small_conv):
        assert IntraLayerReuse().plan(small_conv, 856, False) is not None
        assert IntraLayerReuse().plan(small_conv, 855, False) is None

    def test_prefetch_doubles_requirement(self, small_conv):
        assert IntraLayerReuse().plan(small_conv, 1712, True) is not None
        assert IntraLayerReuse().plan(small_conv, 1711, True) is None

    def test_ofmap_resident_at_end(self, small_conv):
        assert IntraLayerReuse().plan(small_conv, BIG, False).ofmap_resident_at_end


class TestP1:
    def test_tiles(self, small_conv):
        plan = IfmapReuse().plan(small_conv, BIG, False)
        assert plan.tiles.ifmap == 120  # 3·10·4 window
        assert plan.tiles.filters == 216  # all filters resident
        assert plan.tiles.ofmap == 8 * 6  # one ofmap row, all channels

    def test_single_transfer(self, small_conv):
        plan = IfmapReuse().plan(small_conv, BIG, False)
        assert plan.traffic.ifmap_reads == 400
        assert plan.traffic.filter_reads == 216
        assert plan.traffic.ofmap_writes == 384
        _consistent(plan, small_conv)

    def test_row_steps(self, small_conv):
        plan = IfmapReuse().plan(small_conv, BIG, False)
        assert plan.schedule.num_steps == small_conv.out_h

    def test_resident_filters(self, small_conv):
        plan = IfmapReuse().plan(small_conv, BIG, False)
        assert plan.schedule.resident_filters == 216


class TestP2:
    def test_tiles(self, small_conv):
        plan = FilterReuse().plan(small_conv, BIG, False)
        assert plan.tiles.ifmap == 256  # whole unpadded ifmap (Table 3 match)
        assert plan.tiles.filters == 36  # one filter
        assert plan.tiles.ofmap == 64  # one ofmap channel

    def test_single_transfer(self, small_conv):
        plan = FilterReuse().plan(small_conv, BIG, False)
        assert plan.traffic.ifmap_reads == 400
        assert plan.traffic.filter_reads == 216
        assert plan.traffic.ofmap_writes == 384
        _consistent(plan, small_conv)

    def test_one_step_per_filter(self, small_conv):
        plan = FilterReuse().plan(small_conv, BIG, False)
        assert plan.schedule.num_steps == small_conv.num_filters

    def test_depthwise_steps_per_channel(self, dw_layer):
        plan = FilterReuse().plan(dw_layer, BIG, False)
        assert plan.schedule.num_steps == dw_layer.in_c
        assert plan.tiles.filters == 9  # one 2-D filter at a time
        _consistent(plan, dw_layer)


class TestP3:
    def test_tiles(self, small_conv):
        plan = PerChannelReuse().plan(small_conv, BIG, False)
        assert plan.tiles.ifmap == 30  # 3·10 single-channel window
        assert plan.tiles.filters == 3 * 3 * 6  # one channel of all filters
        assert plan.tiles.ofmap == 384  # whole ofmap accumulates

    def test_single_transfer(self, small_conv):
        plan = PerChannelReuse().plan(small_conv, BIG, False)
        assert plan.traffic.ifmap_reads == 400
        assert plan.traffic.filter_reads == 216
        assert plan.traffic.ofmap_writes == 384
        _consistent(plan, small_conv)

    def test_dense_ofmap_resident(self, small_conv, dw_layer):
        assert PerChannelReuse().plan(small_conv, BIG, False).ofmap_resident_at_end
        assert not PerChannelReuse().plan(dw_layer, BIG, False).ofmap_resident_at_end

    def test_depthwise_small_footprint(self, dw_layer):
        plan = PerChannelReuse().plan(dw_layer, BIG, False)
        # window 3·114 + filter 9 + one channel ofmap 56·56
        assert plan.tiles.total == 3 * 114 + 9 + 56 * 56
        _consistent(plan, dw_layer)


class TestP4:
    def test_block_choice_respects_budget(self, small_conv):
        # window 120 + n·(36 + 8) <= budget; n < 6.
        plan = PartialIfmapReuse().plan(small_conv, 120 + 2 * 44, False)
        assert plan.block_size == 2

    def test_block_capped_below_num_filters(self, small_conv):
        plan = PartialIfmapReuse().plan(small_conv, BIG, False)
        assert plan.block_size == small_conv.num_filters - 1

    def test_ifmap_reload_factor(self, small_conv):
        plan = PartialIfmapReuse().plan(small_conv, 120 + 2 * 44, False)
        # x = ceil(6/2) = 3 passes over the padded ifmap.
        assert plan.traffic.ifmap_reads == 3 * 400
        assert plan.traffic.filter_reads == 216
        assert plan.traffic.ofmap_writes == 384
        _consistent(plan, small_conv)

    def test_infeasible_when_window_does_not_fit(self, small_conv):
        assert PartialIfmapReuse().plan(small_conv, 100, False) is None

    def test_depthwise_single_pass(self, dw_layer):
        plan = PartialIfmapReuse().plan(dw_layer, 2_000, False)
        assert plan is not None
        # Channel blocking: the ifmap is never re-streamed (113 touched
        # rows x 113 touched columns at stride 2 with a 3x3 kernel).
        assert plan.traffic.ifmap_reads == dw_layer.in_c * 113 * 113
        assert plan.traffic.filter_reads == dw_layer.filter_elems
        _consistent(plan, dw_layer)

    def test_remainder_blocks_exact(self, small_conv):
        # n=4 -> blocks of 4 and 2; totals must still be exact.
        plan = PartialIfmapReuse().plan(small_conv, 120 + 4 * 44, False)
        assert plan.block_size == 4
        _consistent(plan, small_conv)


class TestP5:
    def test_tiles(self, small_conv):
        plan = PartialPerChannelReuse().plan(small_conv, BIG, False)
        n = plan.block_size
        assert plan.tiles.ifmap == 30
        assert plan.tiles.filters == 9 * n
        assert plan.tiles.ofmap == 64 * n

    def test_reload_factor(self, small_conv):
        # window 30 + n·(9+64): n=2 -> 176.
        plan = PartialPerChannelReuse().plan(small_conv, 176, False)
        assert plan.block_size == 2
        assert plan.traffic.ifmap_reads == 3 * 400  # ceil(6/2) passes
        _consistent(plan, small_conv)

    def test_smallest_footprint_of_named_policies(self, conv_layer):
        sizes = {}
        for policy in NAMED_POLICIES:
            plan = policy.plan(conv_layer, BIG, False)
            if plan is not None and plan.block_size in (None, 1):
                sizes[policy.name] = plan.tiles.total
        small = PartialPerChannelReuse().plan(conv_layer, 3 * 58 + 9 + 56 * 56, False)
        assert small is not None and small.block_size == 1

    def test_depthwise_matches_p4(self, dw_layer):
        p4 = PartialIfmapReuse().plan(dw_layer, 2_000, False)
        p5 = PartialPerChannelReuse().plan(dw_layer, 2_000, False)
        assert p5.traffic == p4.traffic
        assert p5.tiles == p4.tiles
        assert p5.policy_name == "p5"
        _consistent(p5, dw_layer)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestRegistry:
    def test_paper_order(self):
        assert [p.name for p in NAMED_POLICIES] == ["intra", "p1", "p2", "p3", "p4", "p5"]

    def test_every_policy_subclass_is_registered(self):
        """An unregistered policy silently drops out of Algorithm 1's candidates."""
        for module in pkgutil.iter_modules(repro.policies.__path__):
            importlib.import_module(f"repro.policies.{module.name}")
        concrete = {
            cls
            for cls in _subclasses(Policy)
            if cls.__module__.startswith("repro.policies.") and not inspect.isabstract(cls)
        }
        registered = {type(policy) for policy in (*NAMED_POLICIES, FALLBACK_POLICY)}
        assert concrete == registered

    def test_lookup(self):
        assert policy_by_name("p2").name == "p2"
        assert policy_by_name("tiled").name == "tiled"
        with pytest.raises(KeyError):
            policy_by_name("p9")

    @pytest.mark.parametrize("policy", NAMED_POLICIES, ids=lambda p: p.name)
    def test_all_feasible_with_huge_budget(self, policy, conv_layer):
        assert policy.plan(conv_layer, BIG, False) is not None

    @pytest.mark.parametrize("policy", NAMED_POLICIES, ids=lambda p: p.name)
    def test_prefetch_never_cheaper_in_memory(self, policy, conv_layer):
        plain = policy.plan(conv_layer, BIG, False)
        pf = policy.plan(conv_layer, BIG, True)
        assert pf.memory_elems >= plain.memory_elems
