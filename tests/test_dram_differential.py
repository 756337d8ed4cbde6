"""Differential tests: the array DRAM simulator against the reference loop.

``repro.dram`` lowers schedules to coalesced request arrays (consecutive
chunks of one region merged, bursts counted in closed form) and replays
whole batches of streams with a sort plus a short stall-event loop in
integer time.  ``dram_reference`` keeps the plain object-per-chunk,
per-segment float loop.  For every power-of-two bus rate the two must
agree exactly — ``DramStats`` equal field for field, no tolerance — over
the declared spec space, every mapping and arbitrary schedules: region
sizes off the row grid, chunks longer than a row or than their region
(several wraps), regions smaller than a row, zero-byte operands and
empty schedules.  A stream replayed inside a batch must equal the same
stream replayed alone.  At other rates the array simulator rounds
``cycles`` once, exactly; the float loop drifts.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.bounds import MAX_DRAM_CAPACITY_BYTES
from repro.dram import (
    MAPPING_NAMES,
    DramAccess,
    DramSpec,
    Region,
    get_mapping,
    layer_regions,
    schedule_requests,
    simulate_accesses,
    simulate_schedule,
    simulate_schedules,
    simulate_streams,
)
from repro.nn.zoo import get_model
from repro.policies import NAMED_POLICIES
from repro.policies.base import LayerSchedule, StepGroup

from . import dram_reference as reference


@st.composite
def dram_specs(draw, rates=st.sampled_from([1, 2, 4, 8, 16, 32, 64])) -> DramSpec:
    """A device inside ``arch/bounds.py`` with a small geometry (so rows,
    banks and channels wrap and conflict often)."""
    burst = draw(st.sampled_from([32, 64]))
    spec = DramSpec(
        channels=draw(st.integers(1, 4)),
        banks_per_channel=draw(st.integers(1, 16)),
        rows_per_bank=draw(st.integers(1, 64)),
        row_bytes=burst * draw(st.integers(1, 16)),
        burst_bytes=burst,
        channel_bytes_per_cycle=draw(rates),
        # Zero timings often: with no activate cost a channel's first
        # segment is no stall event, and its stall starts later.
        t_rcd=draw(st.just(0) | st.integers(0, 40)),
        t_rp=draw(st.just(0) | st.integers(0, 40)),
        t_cas=draw(st.just(0) | st.integers(0, 40)),
        mapping=draw(st.sampled_from(MAPPING_NAMES)),
    )
    assert spec.capacity_bytes <= MAX_DRAM_CAPACITY_BYTES
    return spec


step_groups = st.builds(
    StepGroup,
    count=st.integers(1, 8),
    ifmap=st.integers(0, 600),
    filters=st.integers(0, 600),
    macs=st.integers(0, 100),
    store=st.integers(0, 600),
)

schedules = st.builds(
    LayerSchedule,
    groups=st.lists(step_groups, min_size=0, max_size=4).map(tuple),
    resident_ifmap=st.integers(0, 4000) | st.just(0),
    resident_filters=st.integers(0, 4000) | st.just(0),
)


def _regions(spec: DramSpec, sizes: list[int], schedule: LayerSchedule, b: int):
    """Contiguous row-aligned regions, traffic-weighted like ``layer_regions``."""
    traffics = (
        schedule.total_ifmap_load * b,
        schedule.total_filter_load * b,
        schedule.total_store * b,
    )
    regions, base = [], 0
    for index, (name, size) in enumerate(zip(("ifmap", "filters", "ofmap"), sizes)):
        regions.append(
            Region(name=name, index=index, base=base, size=size, traffic=traffics[index])
        )
        base += -(-size // spec.row_bytes) * spec.row_bytes
    return tuple(regions)


def merged_chunks(accesses: list[DramAccess]) -> list[tuple[int, int, int, bool]]:
    """The reference chunks as (region, offset, nbytes, write) rows, with
    every chunk that continues the previous one's range in the same region
    merged into it."""
    rows: list[tuple[int, int, int, bool]] = []
    for a in accesses:
        if rows and rows[-1][0] == a.region and sum(rows[-1][1:3]) == a.offset:
            region, offset, nbytes, write = rows[-1]
            rows[-1] = (region, offset, nbytes + a.nbytes, write)
        else:
            rows.append((a.region, a.offset, a.nbytes, a.write))
    return rows


def _reference_stats(schedule, regions, b, spec, mapping, time=float):
    accesses = reference.schedule_accesses(schedule, regions, b)
    return reference.simulate_accesses(accesses, regions, spec, mapping, time)


@settings(max_examples=200, deadline=None)
@given(
    spec=dram_specs(),
    schedule=schedules,
    sizes=st.lists(st.integers(1, 6000), min_size=3, max_size=3),
    bytes_per_elem=st.sampled_from([1, 2]),
)
def test_schedule_stats_equal_reference(spec, schedule, sizes, bytes_per_elem):
    regions = _regions(spec, sizes, schedule, bytes_per_elem)
    requests = schedule_requests([(schedule, regions)], bytes_per_elem, spec)
    expected = reference.schedule_accesses(schedule, regions, bytes_per_elem)
    assert list(
        zip(
            requests.region.tolist(),
            requests.offset.tolist(),
            requests.nbytes.tolist(),
            requests.write.tolist(),
        )
    ) == merged_chunks(expected)
    for mapping in MAPPING_NAMES:
        (stats,) = simulate_streams(requests, (regions,), spec, get_mapping(mapping))
        assert stats == _reference_stats(
            schedule, regions, bytes_per_elem, spec, mapping
        )


@settings(max_examples=150, deadline=None)
@given(
    spec=dram_specs(),
    sizes=st.lists(st.integers(1, 6000), min_size=1, max_size=3),
    raw=st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 12_000), st.integers(1, 3000), st.booleans()
        ),
        max_size=40,
    ),
    mapping=st.sampled_from(MAPPING_NAMES),
)
def test_hand_built_streams_equal_reference(spec, sizes, raw, mapping):
    regions = _regions(spec, sizes, LayerSchedule(groups=()), 1)
    accesses = [
        DramAccess(region=region % len(regions), offset=offset, nbytes=n, write=write)
        for region, offset, n, write in raw
    ]
    stats = simulate_accesses(accesses, regions, spec, get_mapping(mapping))
    assert stats == reference.simulate_accesses(accesses, regions, spec, mapping)


def test_zoo_schedules_equal_reference():
    spec = DramSpec()
    layers = get_model("MobileNet").layers[:3]
    for layer in layers:
        for policy in NAMED_POLICIES:
            plan = policy.plan(layer, 64 * 1024, True)
            if plan is None:
                continue
            regions = layer_regions(plan.schedule, layer, 1, spec)
            for mapping in MAPPING_NAMES:
                stats = simulate_schedule(plan.schedule, layer, 1, spec, mapping)
                assert stats == _reference_stats(plan.schedule, regions, 1, spec, mapping)


def test_non_power_of_two_rate_rounds_cycles_once():
    # At 3 B/cycle every 64-byte transfer lasts 21.333... cycles; the float
    # loop rounds at every step and drifts, integer time rounds once.
    spec = DramSpec(channels=1, banks_per_channel=2, channel_bytes_per_cycle=3)
    schedule = LayerSchedule(groups=(StepGroup(count=97, ifmap=64, filters=64, store=64),))
    regions = _regions(spec, [5000, 3000, 7000], schedule, 1)
    (stats,) = simulate_streams(
        schedule_requests([(schedule, regions)], 1, spec),
        (regions,),
        spec,
        get_mapping("row_major"),
    )
    exact = _reference_stats(schedule, regions, 1, spec, "row_major", time=Fraction)
    drifting = _reference_stats(schedule, regions, 1, spec, "row_major")
    assert isinstance(exact.cycles, Fraction)
    assert stats.cycles == float(exact.cycles)
    assert drifting.cycles != float(exact.cycles)
    assert stats.row_misses == exact.row_misses == drifting.row_misses


#: Schedules whose chunks cross many row and wrap boundaries: long
#: one-operand runs and chunks of up to several kB.
long_chunks = st.builds(
    LayerSchedule,
    groups=st.lists(
        st.builds(
            StepGroup,
            count=st.integers(1, 20),
            ifmap=st.integers(0, 1500),
            filters=st.just(0) | st.integers(0, 1500),
            macs=st.just(1),
            store=st.just(0) | st.integers(0, 1500),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple),
    resident_ifmap=st.just(0) | st.integers(0, 5000),
    resident_filters=st.just(0) | st.integers(0, 5000),
)


@settings(max_examples=60, deadline=None)
@given(
    spec=dram_specs(rates=st.sampled_from([1, 3, 8, 12])),
    batch=st.lists(
        st.tuples(
            long_chunks | schedules,
            st.lists(st.integers(1, 6000) | st.integers(40, 200), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=5,
    ),
    bytes_per_elem=st.sampled_from([1, 2, 4]),
)
def test_batch_equals_each_stream_alone_and_reference(spec, batch, bytes_per_elem):
    # Regions of a few dozen bytes sit below one row and make chunks wrap
    # them several times; 3 and 12 B/cycle are not
    # powers of two, where only the exact reference time applies.
    items = [
        (schedule, _regions(spec, sizes, schedule, bytes_per_elem)) for schedule, sizes in batch
    ]
    layers = [regions for _, regions in items]
    together = schedule_requests(items, bytes_per_elem, spec)
    alone = [schedule_requests([item], bytes_per_elem, spec) for item in items]
    exact = spec.channel_bytes_per_cycle & (spec.channel_bytes_per_cycle - 1) != 0
    for mapping in MAPPING_NAMES:
        policy = get_mapping(mapping)
        replayed = simulate_streams(together, layers, spec, policy)
        assert replayed == [
            simulate_streams(requests, (regions,), spec, policy)[0]
            for requests, regions in zip(alone, layers)
        ]
        for stats, (schedule, regions) in zip(replayed, items):
            expected = _reference_stats(
                schedule, regions, bytes_per_elem, spec, mapping,
                time=Fraction if exact else float,
            )
            if exact:
                expected = replace(expected, cycles=float(expected.cycles))
            assert stats == expected


def test_burst_count_sees_every_chunk_boundary():
    # 100-byte chunks on 64-byte bursts and 96-byte rows, in a 250-byte
    # region: every chunk straddles rows or the wrap, and merged runs hide
    # each boundary the burst count must still see.
    spec = DramSpec(channels=1, banks_per_channel=2, row_bytes=96, burst_bytes=32)
    schedule = LayerSchedule(groups=(StepGroup(count=37, ifmap=100, filters=0, macs=1, store=0),))
    regions = _regions(spec, [250, 64, 64], schedule, 1)
    requests = schedule_requests([(schedule, regions)], 1, spec)
    assert requests.nbytes.size < 37
    for mapping in MAPPING_NAMES:
        assert simulate_streams(requests, (regions,), spec, get_mapping(mapping)) == [
            _reference_stats(schedule, regions, 1, spec, mapping)
        ]


def test_zoo_layers_batch_equals_one_by_one():
    spec = DramSpec()
    layers = get_model("MobileNet").layers[:6]
    items = [
        (plan.schedule, layer)
        for layer in layers
        for policy in NAMED_POLICIES
        if (plan := policy.plan(layer, 64 * 1024, False)) is not None
    ]
    for mapping in MAPPING_NAMES:
        assert simulate_schedules(items, 2, spec, mapping) == [
            simulate_schedule(schedule, layer, 2, spec, mapping) for schedule, layer in items
        ]
