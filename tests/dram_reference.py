"""Reference banked-DRAM simulator: the object-per-request, per-segment loop.

A deliberately plain model of what :mod:`repro.dram` computes with arrays.
It lowers a schedule to one :class:`~repro.dram.DramAccess` per chunk
(split at region wraps), splits each access at row boundaries, locates
every segment with scalar arithmetic and walks the row-buffer state
machine one segment at a time, accumulating time as ``time`` values
(``float`` by default, :class:`fractions.Fraction` for exact time).  The
differential tests compare :mod:`repro.dram` with it field for field.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.dram import DramAccess, DramSpec, DramStats, Region, partition_banks
from repro.policies.base import LayerSchedule

IFMAP, FILTERS, OFMAP = 0, 1, 2


def schedule_accesses(
    schedule: LayerSchedule,
    regions: tuple[Region, ...],
    bytes_per_elem: int,
) -> list[DramAccess]:
    """Lower a streaming schedule to the DRAM request stream it implies."""
    accesses: list[DramAccess] = []
    cursors = [0, 0, 0]
    sizes = [region.size for region in regions]

    def emit(region: int, nbytes: int, write: bool) -> None:
        # Sequential within the region; wraps for multi-pass re-reads.
        remaining = nbytes
        while remaining > 0:
            cursor = cursors[region]
            chunk = min(remaining, sizes[region] - cursor)
            accesses.append(
                DramAccess(region=region, offset=cursor, nbytes=chunk, write=write)
            )
            cursors[region] = (cursor + chunk) % sizes[region]
            remaining -= chunk

    if schedule.resident_ifmap:
        emit(IFMAP, schedule.resident_ifmap * bytes_per_elem, False)
    if schedule.resident_filters:
        emit(FILTERS, schedule.resident_filters * bytes_per_elem, False)
    for group in schedule.groups:
        ifmap_bytes = group.ifmap * bytes_per_elem
        filter_bytes = group.filters * bytes_per_elem
        store_bytes = group.store * bytes_per_elem
        for _ in range(group.count):
            if ifmap_bytes:
                emit(IFMAP, ifmap_bytes, False)
            if filter_bytes:
                emit(FILTERS, filter_bytes, False)
            if store_bytes:
                emit(OFMAP, store_bytes, True)
    return accesses


def locate(
    mapping: str, spec: DramSpec, regions: tuple[Region, ...], region: int, offset: int
) -> tuple[int, int, int]:
    """(channel, bank, row) of the row-block holding ``offset`` of ``region``."""
    if mapping == "reuse_aware":
        weights = tuple(r.traffic if r.traffic > 0 else r.size for r in regions)
        start, count = partition_banks(spec.banks_per_channel, weights)[region]
        block = offset // spec.row_bytes
        k = block // spec.channels
        return (
            block % spec.channels,
            start + k % count,
            (k // count) % spec.rows_per_bank,
        )
    block = (regions[region].base + offset) // spec.row_bytes
    if mapping == "row_major":
        rest = block // spec.rows_per_bank
        return (
            (rest // spec.banks_per_channel) % spec.channels,
            rest % spec.banks_per_channel,
            block % spec.rows_per_bank,
        )
    assert mapping == "bank_interleaved", mapping
    return (
        block % spec.channels,
        (block // spec.channels) % spec.banks_per_channel,
        (block // (spec.channels * spec.banks_per_channel)) % spec.rows_per_bank,
    )


class _BankState:
    """Open row and readiness time of one DRAM bank."""

    __slots__ = ("open_row", "free_at")

    def __init__(self, free_at: Any) -> None:
        self.open_row: int | None = None
        self.free_at = free_at


def simulate_accesses(
    accesses: list[DramAccess],
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: str,
    time: Callable[[int], Any] = float,
) -> DramStats:
    """Replay an access stream one row segment at a time."""
    row_bytes = spec.row_bytes
    burst_bytes = spec.burst_bytes
    bus_rate = spec.channel_bytes_per_cycle

    bus = [time(0)] * spec.channels
    banks: dict[tuple[int, int], _BankState] = {}

    reads = writes = bursts = hits = misses = 0

    for access in accesses:
        offset = access.offset
        remaining = access.nbytes
        if access.write:
            writes += access.nbytes
        else:
            reads += access.nbytes
        while remaining > 0:
            seg_bytes = min(remaining, row_bytes - offset % row_bytes)
            channel, bank_idx, row = locate(mapping, spec, regions, access.region, offset)
            bank = banks.setdefault((channel, bank_idx), _BankState(time(0)))
            seg_bursts = -(-seg_bytes // burst_bytes)
            bursts += seg_bursts
            if bank.open_row == row:
                hits += seg_bursts
                start = max(bus[channel], bank.free_at)
            else:
                misses += 1
                hits += seg_bursts - 1
                penalty = spec.row_open_penalty if bank.open_row is None else (
                    spec.row_miss_penalty
                )
                bank.open_row = row
                start = max(bus[channel], bank.free_at + penalty)
            end = start + time(seg_bytes) / bus_rate
            bus[channel] = end
            bank.free_at = end
            offset += seg_bytes
            remaining -= seg_bytes

    total_bytes = reads + writes
    cycles = max(bus) if total_bytes else 0.0
    return DramStats(
        reads_bytes=reads,
        writes_bytes=writes,
        bursts=bursts,
        row_hits=hits,
        row_misses=misses,
        activations=misses,
        cycles=cycles,
        ideal_cycles=total_bytes / spec.peak_bytes_per_cycle,
        act_energy_pj=misses * spec.act_pj,
        read_energy_pj=reads * spec.read_pj_per_byte,
        write_energy_pj=writes * spec.write_pj_per_byte,
    )
