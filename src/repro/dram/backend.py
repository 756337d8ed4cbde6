"""Trace-driven banked-DRAM backend.

The backend consumes a stream of requests (produced from a policy's
streaming schedule by :mod:`repro.dram.trace`, or hand-built
:class:`DramAccess` lists), resolves them through a mapping policy's
:class:`~repro.dram.mapping.AddressLayout` and replays them against a
row-buffer state machine:

* every request is split at row boundaries into *segments* (one
  (channel, bank, row) touch each);
* a segment whose row is already open in its bank proceeds at the bus
  rate (every burst a row hit);
* a segment targeting a different row pays precharge + activate + CAS
  before its first burst (one row *activation*; the remaining bursts of
  the segment are hits);
* requests are queued ahead of time (the schedule is static), so a bank
  can precharge/activate in the shadow of other banks' transfers — bank
  parallelism — while each channel's data bus serializes its transfers.

The replay is one NumPy array pipeline, not a per-segment loop.  A bank
is only ever freed at its channel's bus time and bus times only grow, so
``free_at <= bus`` always holds: a hit starts when the bus frees, and per
channel the end of segment ``i`` is ``D_i + U_i`` with ``D`` the prefix
sum of transfer times and ``U`` a nondecreasing stall.  ``U`` can only
grow at a miss whose penalty exceeds the bus time since that bank's
previous segment; only those *stall events* (a few percent of segments)
go through a short scalar loop.  All times are kept in integer units of
``1 / channel_bytes_per_cycle`` cycles (a transfer of ``n`` bytes lasts
``n`` units) and divided once at the end, so ``cycles`` is the exactly
rounded quotient.

The result is a :class:`DramStats`: row hits/misses, activations,
occupancy cycles per channel, effective bandwidth and per-component
energy.  By construction ``cycles >= ideal_cycles`` (the flat
peak-bandwidth bound) — the invariant the verifier's ``V018`` code
re-checks for every DRAM-backed plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from ..obs import get_tracer, metrics_registry
from .mapping import MappingPolicy, Region
from .spec import DramSpec


@dataclass(frozen=True)
class DramAccess:
    """One request of the off-chip stream (all bytes of one step chunk)."""

    region: int  #: index into the layer's region tuple
    offset: int  #: byte offset within the region
    nbytes: int  #: request length in bytes
    write: bool = False

    def __post_init__(self) -> None:
        if self.region < 0 or self.offset < 0 or self.nbytes <= 0:
            raise ValueError("invalid DRAM access")


@dataclass(frozen=True)
class DramStats:
    """Row-buffer statistics and timing of one simulated access stream."""

    reads_bytes: int = 0
    writes_bytes: int = 0
    bursts: int = 0
    row_hits: int = 0
    row_misses: int = 0
    activations: int = 0
    cycles: float = 0.0
    ideal_cycles: float = 0.0
    act_energy_pj: float = 0.0
    read_energy_pj: float = 0.0
    write_energy_pj: float = 0.0

    @property
    def total_bytes(self) -> int:
        """Bytes moved in either direction."""
        return self.reads_bytes + self.writes_bytes

    @property
    def row_hit_rate(self) -> float:
        """Fraction of bursts served from an open row."""
        return self.row_hits / self.bursts if self.bursts else 0.0

    @property
    def stall_cycles(self) -> float:
        """Cycles lost versus the zero-overhead peak-bandwidth bound."""
        return max(0.0, self.cycles - self.ideal_cycles)

    @property
    def effective_bytes_per_cycle(self) -> float:
        """Delivered bandwidth over the whole stream."""
        return self.total_bytes / self.cycles if self.cycles else 0.0

    @property
    def energy_pj(self) -> float:
        """Total off-chip energy (activation + read + write)."""
        return self.act_energy_pj + self.read_energy_pj + self.write_energy_pj

    def merged(self, other: "DramStats") -> "DramStats":
        """Aggregate of two sequential streams (cycles add)."""
        return DramStats(
            reads_bytes=self.reads_bytes + other.reads_bytes,
            writes_bytes=self.writes_bytes + other.writes_bytes,
            bursts=self.bursts + other.bursts,
            row_hits=self.row_hits + other.row_hits,
            row_misses=self.row_misses + other.row_misses,
            activations=self.activations + other.activations,
            cycles=self.cycles + other.cycles,
            ideal_cycles=self.ideal_cycles + other.ideal_cycles,
            act_energy_pj=self.act_energy_pj + other.act_energy_pj,
            read_energy_pj=self.read_energy_pj + other.read_energy_pj,
            write_energy_pj=self.write_energy_pj + other.write_energy_pj,
        )


def combine_stats(parts: list[DramStats]) -> DramStats:
    """Aggregate per-layer stats into plan totals (layers run in sequence)."""
    total = DramStats()
    for part in parts:
        total = total.merged(part)
    return total


class DramRequests(NamedTuple):
    """An access stream as parallel arrays, one entry per request."""

    region: NDArray[np.int64]  #: index into the layer's region tuple
    offset: NDArray[np.int64]  #: byte offset within the region
    nbytes: NDArray[np.int64]  #: request length in bytes (positive)
    write: NDArray[np.bool_]


def split_at(
    start: NDArray[np.int64], nbytes: NDArray[np.int64], quantum: NDArray[np.int64] | int
) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64], NDArray[np.int64]]:
    """Split byte ranges ``[start, start + nbytes)`` at multiples of ``quantum``.

    Returns ``(owner, piece_start, piece_bytes, block)`` with one entry per
    piece, in range order: the index of the range each piece came from,
    where it starts, its length and ``piece_start // quantum``.
    """
    first = start // quantum
    pieces = (start + nbytes - 1) // quantum - first + 1
    if pieces.size == 0 or int(pieces.max()) == 1:
        owner = np.arange(start.size, dtype=np.int64)
        return owner, start, nbytes, first
    owner = np.repeat(np.arange(start.size, dtype=np.int64), pieces)
    step = np.arange(owner.size, dtype=np.int64)
    step -= np.repeat(np.cumsum(pieces) - pieces, pieces)
    block = first[owner] + step
    if not isinstance(quantum, int):
        quantum = quantum[owner]
    lo = np.maximum(start[owner], block * quantum)
    hi = np.minimum((start + nbytes)[owner], (block + 1) * quantum)
    return owner, lo, hi - lo, block


def simulate_accesses(
    accesses: list[DramAccess] | tuple[DramAccess, ...],
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> DramStats:
    """Replay a hand-built access stream through the row-buffer state machine."""
    requests = DramRequests(
        region=np.array([a.region for a in accesses], dtype=np.int64),
        offset=np.array([a.offset for a in accesses], dtype=np.int64),
        nbytes=np.array([a.nbytes for a in accesses], dtype=np.int64),
        write=np.array([a.write for a in accesses], dtype=np.bool_),
    )
    return simulate_requests(requests, regions, spec, mapping)


def simulate_requests(
    requests: DramRequests,
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> DramStats:
    """Replay a request stream through the row-buffer state machine."""
    with get_tracer().start(
        "dram_stream", mapping=mapping.name, requests_count=requests.nbytes.size
    ) as span:
        stats, segments, stall_events = _simulate(requests, regions, spec, mapping)
        span.set_attr("segments_count", segments)
        span.set_attr("stall_events_count", stall_events)
        span.set_attr("row_hits_count", stats.row_hits)
        span.set_attr("row_misses_count", stats.row_misses)
        span.set_attr("total_bytes", stats.total_bytes)
    registry = metrics_registry()
    registry.counter("dram_row_hits_count").add(stats.row_hits)
    registry.counter("dram_row_misses_count").add(stats.row_misses)
    registry.counter("dram_activations_count").add(stats.activations)
    registry.counter("dram_reads_bytes").add(stats.reads_bytes)
    registry.counter("dram_writes_bytes").add(stats.writes_bytes)
    return stats


def _simulate(
    requests: DramRequests,
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> tuple[DramStats, int, int]:
    """Stats of the stream, its segment count and its stall-event count."""
    writes = int(requests.nbytes[requests.write].sum())
    reads = int(requests.nbytes.sum()) - writes
    if reads + writes == 0:
        return DramStats(), 0, 0

    # Row segments in request order, located in one array call.
    owner, offset, seg_bytes = split_at(
        requests.offset, requests.nbytes, spec.row_bytes
    )[:3]
    channel, bank, row = mapping.layout(spec, regions).locate(
        requests.region[owner], offset
    )
    segments = seg_bytes.size
    bursts = int(((seg_bytes + (spec.burst_bytes - 1)) // spec.burst_bytes).sum())

    # Channel order: each channel's segments contiguous and in request
    # order.  Times are in units of 1/rate cycles, so a segment's transfer
    # lasts ``seg_bytes`` units and a running sum of bytes is bus time.
    busy = np.bincount(channel, minlength=spec.channels)
    busy = busy[busy > 0]
    lasts = np.cumsum(busy) - 1  # each busy channel's last segment
    firsts = lasts - busy + 1  # ... and its first
    by_channel = np.argsort(channel, kind="stable")
    key = (channel * spec.banks_per_channel + bank)[by_channel]
    row = row[by_channel]
    seg_bytes = seg_bytes[by_channel]
    done = np.cumsum(seg_bytes)  # stall-free bus time at each segment's end
    origin = done[firsts] - seg_bytes[firsts]  # ... at each channel's start

    # A stable sort by bank makes each segment's predecessor in its bank
    # its neighbour: a different bank means a cold bank, a different row
    # a row miss.
    by_bank = np.argsort(key, kind="stable")
    key = key[by_bank]
    row = row[by_bank]
    cold = np.empty(segments, dtype=np.bool_)
    cold[0] = True
    np.not_equal(key[1:], key[:-1], out=cold[1:])
    miss = cold.copy()
    miss[1:] |= row[1:] != row[:-1]
    at = np.flatnonzero(miss)
    misses = at.size

    # Stall events: misses whose penalty exceeds the bus time since their
    # bank's previous segment ended (since the channel's start when cold).
    # Only they can push the channel's stall ``U`` up; every other segment
    # starts the moment the bus frees.
    cold = cold[at]
    position = by_bank[at]
    prev = np.where(cold, -1, by_bank[at - 1])
    lane = np.searchsorted(firsts, position, side="right") - 1  # busy channel
    rate = spec.channel_bytes_per_cycle
    slack = np.where(
        cold, spec.row_open_penalty * rate, spec.row_miss_penalty * rate
    ) - (done[position] - seg_bytes[position] - np.where(cold, origin[lane], done[prev]))
    event = np.flatnonzero(slack > 0)
    event = event[np.argsort(position[event])]
    position = position[event]
    slack = slack[event]
    prev = prev[event]
    lane = lane[event]

    # U_j of the previous segment is the running stall of the last event
    # at or before it in the same channel (0 when there is none).
    look = np.searchsorted(position, prev, side="right") - 1
    floor = np.searchsorted(position, firsts[lane])
    stall = [0] * position.size
    current = -1
    running = 0
    for k, (gain, at_k, base) in enumerate(
        zip(slack.tolist(), look.tolist(), floor.tolist())
    ):
        if base != current:
            current = base
            running = 0
        candidate = gain + (stall[at_k] if at_k >= base else 0)
        if candidate > running:
            running = candidate
        stall[k] = running

    final = np.zeros(firsts.size, dtype=np.int64)
    np.maximum.at(final, lane, np.array(stall, dtype=np.int64))
    cycles = int((done[lasts] - origin + final).max()) / rate

    total = reads + writes
    stats = DramStats(
        reads_bytes=reads,
        writes_bytes=writes,
        bursts=bursts,
        row_hits=bursts - misses,
        row_misses=misses,
        activations=misses,
        cycles=cycles,
        ideal_cycles=total / spec.peak_bytes_per_cycle,
        act_energy_pj=misses * spec.act_pj,
        read_energy_pj=reads * spec.read_pj_per_byte,
        write_energy_pj=writes * spec.write_pj_per_byte,
    )
    return stats, segments, len(stall)
