"""Schedule → DRAM address stream, and per-layer DRAM simulation.

The policies already emit exact per-step load/store schedules
(:class:`~repro.policies.base.LayerSchedule`).  This module lowers one
such schedule to the banked-DRAM access stream the backend consumes:

* each operand tensor gets a row-aligned :class:`~repro.dram.mapping.Region`
  (ifmap at its padded traffic footprint, filters, ofmap), laid out
  contiguously the way a simple allocator would place them;
* a cursor per region turns the per-step chunk sizes into sequential
  addresses — ifmap and filter loads advance (and wrap, for multi-pass
  policies), stores advance the ofmap cursor;
* steps interleave their ifmap / filter / store chunks in issue order,
  which is exactly what creates row-buffer conflicts under mappings that
  let operands share banks.

The lowering is array-valued end to end: each step group tiles its
per-step chunk pattern, a running sum per region places every chunk, and
chunks that run past the end of their region are split at the wrap.

:func:`dram_effective_bandwidth` reduces the simulated stream to the one
number the latency estimator and the step-level engine consume: delivered
elements per cycle, memoized per (schedule, layer, device) because the
planner evaluates the same candidate schedule several times.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from ..nn.layer import LayerSpec
from ..policies.base import LayerSchedule
from .backend import DramRequests, DramStats, simulate_requests, split_at
from .mapping import MappingPolicy, Region, get_mapping
from .spec import DramSpec

#: Region indices of the three operand streams.
IFMAP, FILTERS, OFMAP = 0, 1, 2


def _align_up(value: int, quantum: int) -> int:
    return -(-value // quantum) * quantum


def layer_regions(
    schedule: LayerSchedule,
    layer: LayerSpec,
    bytes_per_elem: int,
    dram: DramSpec,
) -> tuple[Region, ...]:
    """The layer's three operand regions, allocated contiguously.

    Bases are row-aligned (as a page-granular allocator would place them)
    so two operands never share a row block; sizes are the tensors' DRAM
    footprints and ``traffic`` records the bytes the schedule actually
    moves (the reuse-aware mapping weights bank shares by it).
    """
    sizes = (
        layer.ifmap_padded_elems * bytes_per_elem,
        layer.filter_elems * bytes_per_elem,
        layer.ofmap_elems * bytes_per_elem,
    )
    traffics = (
        schedule.total_ifmap_load * bytes_per_elem,
        schedule.total_filter_load * bytes_per_elem,
        schedule.total_store * bytes_per_elem,
    )
    names = ("ifmap", "filters", "ofmap")
    regions = []
    base = 0
    for index, (name, size, traffic) in enumerate(zip(names, sizes, traffics)):
        regions.append(
            Region(name=name, index=index, base=base, size=size, traffic=traffic)
        )
        base += _align_up(size, dram.row_bytes)
    return tuple(regions)


def schedule_requests(
    schedule: LayerSchedule,
    regions: tuple[Region, ...],
    bytes_per_elem: int,
) -> DramRequests:
    """Lower a streaming schedule to the DRAM request stream it implies.

    Requests are in stream order: the resident ifmap and filter loads, then
    every step's ifmap, filter and store chunks.  Each region has its own
    cursor; a chunk that runs past the end of its region wraps to the
    start (multi-pass re-reads) and is split into one request per pass.
    """
    # (region, bytes) rows: the resident loads, then each step group's
    # per-step pattern tiled ``count`` times.
    resident = ((IFMAP, schedule.resident_ifmap), (FILTERS, schedule.resident_filters))
    parts: list[NDArray[np.int64]] = [
        np.array([[index], [elems * bytes_per_elem]], dtype=np.int64)
        for index, elems in resident
        if elems
    ]
    for group in schedule.groups:
        step = [
            (index, elems * bytes_per_elem)
            for index, elems in (
                (IFMAP, group.ifmap), (FILTERS, group.filters), (OFMAP, group.store)
            )
            if elems
        ]
        if step:
            parts.append(np.tile(np.array(step, dtype=np.int64).T, group.count))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return DramRequests(empty, empty, empty, np.zeros(0, dtype=np.bool_))
    region, nbytes = np.concatenate(parts, axis=1)

    # Unwrapped cursor: bytes the region has streamed before each request.
    cursor = np.empty_like(nbytes)
    for index in range(len(regions)):
        mine = region == index
        streamed = np.cumsum(nbytes[mine])
        cursor[mine] = streamed - nbytes[mine]
    sizes = np.array([r.size for r in regions], dtype=np.int64)[region]
    owner, start, length, passes = split_at(cursor, nbytes, sizes)
    region = region[owner]
    return DramRequests(
        region=region,
        offset=start - passes * sizes[owner],
        nbytes=length,
        write=region == OFMAP,
    )


def simulate_schedule(
    schedule: LayerSchedule,
    layer: LayerSpec,
    bytes_per_elem: int,
    dram: DramSpec,
    mapping: MappingPolicy | str | None = None,
) -> DramStats:
    """Trace-simulate one layer's schedule on the banked DRAM."""
    policy = _resolve_mapping(dram, mapping)
    regions = layer_regions(schedule, layer, bytes_per_elem, dram)
    requests = schedule_requests(schedule, regions, bytes_per_elem)
    return simulate_requests(requests, regions, dram, policy)


def _resolve_mapping(dram: DramSpec, mapping: MappingPolicy | str | None) -> MappingPolicy:
    if mapping is None:
        return get_mapping(dram.mapping)
    if isinstance(mapping, str):
        return get_mapping(mapping)
    return mapping


@lru_cache(maxsize=65536)
def _effective_bandwidth(
    schedule: LayerSchedule,
    layer: LayerSpec,
    dram: DramSpec,
    bytes_per_elem: int,
    flat_elems_per_cycle: float,
) -> float:
    stats = simulate_schedule(schedule, layer, bytes_per_elem, dram)
    if stats.cycles <= 0.0:
        return flat_elems_per_cycle
    total_elems = stats.total_bytes // bytes_per_elem
    return total_elems / stats.cycles


def dram_effective_bandwidth(
    schedule: LayerSchedule,
    layer: LayerSpec,
    dram: DramSpec,
    bytes_per_elem: int,
    flat_elems_per_cycle: float,
) -> float:
    """Delivered off-chip bandwidth of the schedule, in elements/cycle.

    Runs the trace-driven backend over the schedule's address stream under
    the device's configured mapping policy and averages the delivered rate
    over the whole stream.  Falls back to ``flat_elems_per_cycle`` for
    schedules that move no data.  Memoized: planning evaluates the same
    candidate schedule repeatedly (estimate, assignment, verification).
    """
    return _effective_bandwidth(
        schedule, layer, dram, bytes_per_elem, flat_elems_per_cycle
    )


def clear_dram_memo() -> None:
    """Drop the memoized effective bandwidths (cold-start benches)."""
    _effective_bandwidth.cache_clear()
