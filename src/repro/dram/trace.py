"""Schedule → DRAM address stream, and per-layer DRAM simulation.

The policies already emit exact per-step load/store schedules
(:class:`~repro.policies.base.LayerSchedule`).  This module lowers a
batch of such schedules to the banked-DRAM request streams the backend
consumes:

* each operand tensor gets a row-aligned :class:`~repro.dram.mapping.Region`
  (ifmap at its padded traffic footprint, filters, ofmap), laid out
  contiguously the way a simple allocator would place them;
* a cursor per region turns the per-step chunk sizes into sequential
  addresses — ifmap and filter loads advance (and wrap, for multi-pass
  policies), stores advance the ofmap cursor;
* steps interleave their ifmap / filter / store chunks in issue order,
  which is exactly what creates row-buffer conflicts under mappings that
  let operands share banks.

The lowering is array-valued across the whole batch.  Consecutive chunks
of one region continue each other's address range, so they merge into
one request, split only where the region wraps: a step group that moves
one operand becomes a single request of ``count × chunk`` bytes without
expanding its steps.  Only the burst count depends on the chunk
boundaries; it is counted in closed form from the row and wrap
boundaries inside each run of equal chunks.

:func:`dram_effective_bandwidths` reduces each simulated stream to the
one number the latency estimator and the step-level engine consume:
delivered elements per cycle, memoized per (schedule, layer, device)
because the planner evaluates the same candidate schedule several times.
The memo's misses replay in one batch (:func:`simulate_schedules`).
:func:`lower_schedules` is the mapping-independent half of that replay,
so pricing one plan under several mappings lowers it once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from ..nn.layer import LayerSpec
from ..policies.base import LayerSchedule
from .backend import (
    DramRequests,
    DramStats,
    first_regions,
    simulate_streams,
    split_at,
    stable_order,
)
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
    items: Sequence[tuple[LayerSchedule, tuple[Region, ...]]],
    bytes_per_elem: int,
    dram: DramSpec,
) -> DramRequests:
    """Lower streaming schedules to the batch of DRAM request streams they imply.

    Stream ``k`` is ``items[k]``'s schedule addressing ``items[k]``'s
    regions.  Its chunks are in stream order: the resident ifmap and
    filter loads, then every step's ifmap, filter and store chunks.  Each
    region has its own cursor; a chunk that runs past the end of its
    region wraps to the start (multi-pass re-reads).  Consecutive chunks
    of one region are address-contiguous, so they are merged into one
    request, which is split only where it wraps.  A step group whose steps
    move one operand is one request, built without expanding its steps.

    Merging is exact: the later chunk is always a row hit on the bank the
    earlier one left open, the moment the bus frees.  Only the burst
    count sees the chunk boundaries, and :func:`_chunk_bursts` counts it
    per run of equal chunks.
    """
    # One run of equal chunks per resident load and per operand of each
    # step group: (stream, region, chunk bytes, chunks, operands per step,
    # operand slot in the step).
    runs: list[tuple[int, int, int, int, int, int]] = []
    for k, (schedule, _) in enumerate(items):
        resident = ((IFMAP, schedule.resident_ifmap), (FILTERS, schedule.resident_filters))
        for index, elems in resident:
            if elems:
                runs.append((k, index, elems * bytes_per_elem, 1, 1, 0))
        for group in schedule.groups:
            step = [
                (index, elems * bytes_per_elem)
                for index, elems in (
                    (IFMAP, group.ifmap), (FILTERS, group.filters), (OFMAP, group.store)
                )
                if elems
            ]
            for slot, (index, nbytes) in enumerate(step):
                runs.append((k, index, nbytes, group.count, len(step), slot))
    first = first_regions([regions for _, regions in items])
    sizes = np.array(
        [region.size for _, regions in items for region in regions], dtype=np.int64
    )
    if not runs:
        empty = np.zeros(0, dtype=np.int64)
        return DramRequests(
            empty, empty, empty, empty, np.zeros(0, dtype=np.bool_), np.zeros_like(first)
        )
    stream, region, chunk, count, width, slot = np.array(runs, dtype=np.int64).T
    key = first[stream] + region  # batch-wide region index
    bursts = np.bincount(
        stream,
        _chunk_bursts(key, chunk, count, sizes, dram.row_bytes, dram.burst_bytes),
        len(items),
    ).astype(np.int64)

    # Requests before merging: a one-operand run is one request, the runs
    # of a wider group interleave step by step, one request per chunk.
    single = width == 1
    entries = np.where(single, 1, count)
    block = np.where(slot == 0, entries * width, 0)
    group_start = (np.cumsum(block) - block)[np.arange(slot.size) - slot]
    run = np.repeat(np.arange(slot.size), entries)
    step_index = np.arange(run.size) - np.repeat(np.cumsum(entries) - entries, entries)
    order = np.empty_like(run)
    order[group_start[run] + step_index * width[run] + slot[run]] = run
    key = key[order]
    nbytes = np.where(single, chunk * count, chunk)[order]
    head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    key = key[head]
    nbytes = np.add.reduceat(nbytes, head)

    owner, start, length, passes = split_at(
        _cursor(key, nbytes, sizes.size), nbytes, sizes[key]
    )
    key = key[owner]
    stream = stream[order[head[owner]]]
    region = key - first[stream]
    return DramRequests(
        stream=stream,
        region=region,
        offset=start - passes * sizes[key],
        nbytes=length,
        write=region == OFMAP,
        bursts=bursts,
    )


def _cursor(
    key: NDArray[np.int64], nbytes: NDArray[np.int64], regions: int
) -> NDArray[np.int64]:
    """Unwrapped cursor: bytes each entry's region ``key`` streamed before it."""
    by_key = stable_order(key, regions)
    streamed = np.cumsum(nbytes[by_key])
    sorted_key = key[by_key]
    starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
    before = streamed[starts] - nbytes[by_key[starts]]  # total before each key
    cursor = np.empty_like(nbytes)
    cursor[by_key] = streamed - nbytes[by_key] - np.repeat(
        before, np.diff(np.append(starts, key.size))
    )
    return cursor


def _chunk_bursts(
    key: NDArray[np.int64],
    chunk: NDArray[np.int64],
    count: NDArray[np.int64],
    sizes: NDArray[np.int64],
    row_bytes: int,
    burst_bytes: int,
) -> NDArray[np.int64]:
    """Bursts of each run of ``count`` consecutive ``chunk``-byte chunks.

    Each chunk is cut at its region's wraps and at row boundaries, and
    every piece takes ``ceil(piece / burst)`` bursts.  Rather than
    expanding the chunks, each run is cut at those boundaries alone; a
    piece then spans a partial head chunk, some whole chunks and a
    partial tail chunk.  The cost is one entry per boundary, not per step.
    """
    total = chunk * count
    cursor = _cursor(key, total, sizes.size)
    size = sizes[key]
    owner, start, length, passes = split_at(cursor, total, size)
    wrapped = passes * size[owner]
    piece_run, offset, piece = split_at(start - wrapped, length, row_bytes)[:3]
    run = owner[piece_run]
    chunk = chunk[run]
    within = (offset + wrapped[piece_run] - cursor[run]) % chunk
    head = np.where(within > 0, np.minimum(piece, chunk - within), 0)
    whole, tail = np.divmod(piece - head, chunk)

    def ceil(nbytes: NDArray[np.int64]) -> NDArray[np.int64]:
        return (nbytes + (burst_bytes - 1)) // burst_bytes

    return np.bincount(
        run, ceil(head) + whole * ceil(chunk) + ceil(tail), key.size
    ).astype(np.int64)


def lower_schedules(
    items: Sequence[tuple[LayerSchedule, LayerSpec]],
    bytes_per_elem: int,
    dram: DramSpec,
) -> tuple[DramRequests, list[tuple[Region, ...]]]:
    """Each layer's regions and the batch of request streams its schedule implies.

    The lowering does not depend on the mapping policy, so one lowering
    replays under any number of them (:func:`simulate_streams`).
    """
    regions = [layer_regions(schedule, layer, bytes_per_elem, dram) for schedule, layer in items]
    streams = [(schedule, layout) for (schedule, _), layout in zip(items, regions)]
    return schedule_requests(streams, bytes_per_elem, dram), regions


def simulate_schedules(
    items: Sequence[tuple[LayerSchedule, LayerSpec]],
    bytes_per_elem: int,
    dram: DramSpec,
    mapping: MappingPolicy | str | None = None,
) -> list[DramStats]:
    """Trace-simulate many layers' schedules on the banked DRAM in one batch."""
    requests, regions = lower_schedules(items, bytes_per_elem, dram)
    return simulate_streams(requests, regions, dram, resolve_mapping(dram, mapping))


def simulate_schedule(
    schedule: LayerSchedule,
    layer: LayerSpec,
    bytes_per_elem: int,
    dram: DramSpec,
    mapping: MappingPolicy | str | None = None,
) -> DramStats:
    """Trace-simulate one layer's schedule on the banked DRAM."""
    return simulate_schedules([(schedule, layer)], bytes_per_elem, dram, mapping)[0]


def resolve_mapping(dram: DramSpec, mapping: MappingPolicy | str | None) -> MappingPolicy:
    """``mapping`` as a policy; ``None`` is the device's configured mapping."""
    if mapping is None:
        return get_mapping(dram.mapping)
    if isinstance(mapping, str):
        return get_mapping(mapping)
    return mapping


#: Effective bandwidth per ``(schedule, layer, dram, bytes_per_elem,
#: flat_elems_per_cycle)``.  The same discipline as the estimator memos:
#: one ``.get``, idempotent puts of deterministic values, and a wholesale
#: reset above the cap.
_BANDWIDTH_MEMO: dict[tuple[object, ...], float] = {}
_BANDWIDTH_MEMO_MAX = 65536


def dram_effective_bandwidths(
    items: Sequence[tuple[LayerSchedule, LayerSpec]],
    dram: DramSpec,
    bytes_per_elem: int,
    flat_elems_per_cycle: float,
) -> list[float]:
    """Delivered off-chip bandwidth of each schedule, in elements/cycle.

    Runs the trace-driven backend over each schedule's address stream
    under the device's configured mapping policy and averages the
    delivered rate over the whole stream.  Falls back to
    ``flat_elems_per_cycle`` for schedules that move no data.  Memoized:
    planning evaluates the same candidate schedule repeatedly (estimate,
    assignment, verification).  The schedules the memo misses are
    replayed in one batch, each distinct one once.
    """
    keys = [
        (schedule, layer, dram, bytes_per_elem, flat_elems_per_cycle)
        for schedule, layer in items
    ]
    found = [_BANDWIDTH_MEMO.get(key) for key in keys]
    missed = {key: item for key, item, value in zip(keys, items, found) if value is None}
    fresh: dict[tuple[object, ...], float] = {}
    if missed:
        if len(_BANDWIDTH_MEMO) > _BANDWIDTH_MEMO_MAX:
            _BANDWIDTH_MEMO.clear()
        for key, stats in zip(
            missed, simulate_schedules(list(missed.values()), bytes_per_elem, dram)
        ):
            fresh[key] = _BANDWIDTH_MEMO[key] = (
                stats.total_bytes // bytes_per_elem / stats.cycles
                if stats.cycles > 0.0
                else flat_elems_per_cycle
            )
    return [fresh[key] if value is None else value for key, value in zip(keys, found)]


def dram_effective_bandwidth(
    schedule: LayerSchedule,
    layer: LayerSpec,
    dram: DramSpec,
    bytes_per_elem: int,
    flat_elems_per_cycle: float,
) -> float:
    """Delivered off-chip bandwidth of one schedule (a batch of one)."""
    return dram_effective_bandwidths(
        [(schedule, layer)], dram, bytes_per_elem, flat_elems_per_cycle
    )[0]


def clear_dram_memo() -> None:
    """Drop the memoized effective bandwidths (cold-start benches)."""
    _BANDWIDTH_MEMO.clear()
