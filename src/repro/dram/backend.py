"""Trace-driven banked-DRAM backend.

The backend consumes a batch of request streams (produced from policies'
streaming schedules by :mod:`repro.dram.trace`, or a hand-built
:class:`DramAccess` list), resolves them through a mapping policy's
:class:`~repro.dram.mapping.AddressLayout` and replays each against its
own row-buffer state machine:

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

The replay is one NumPy array pipeline over the whole batch, not a loop
per stream or per segment.  Stream ``k``'s channel ``c`` becomes *lane*
``c * streams + k``; lanes share no bank and no bus, so each stream's
statistics are those it has alone, and a single stream is a batch of
one.  A bank is only ever freed at its lane's bus time and bus times
only grow, so ``free_at <= bus`` always holds: a hit starts when the bus
frees, and per lane the end of segment ``i`` is ``D_i + U_i`` with ``D``
the prefix sum of transfer times and ``U`` a nondecreasing stall.  ``U``
can only grow at a miss whose penalty exceeds the bus time since that
bank's previous segment; only those *stall events* (a few percent of
segments) go through a short scalar loop.  All times are kept in integer
units of ``1 / channel_bytes_per_cycle`` cycles (a transfer of ``n``
bytes lasts ``n`` units) and divided once at the end, so ``cycles`` is
the exactly rounded quotient.  A stream's cycles are the largest over
its lanes; its reads, writes and misses are counted with ``bincount``,
and its bursts come with its requests (see :class:`DramRequests`).

The result is a :class:`DramStats`: row hits/misses, activations,
occupancy cycles per channel, effective bandwidth and per-component
energy.  By construction ``cycles >= ideal_cycles`` (the flat
peak-bandwidth bound) — the invariant the verifier's ``V018`` code
re-checks for every DRAM-backed plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    """A batch of access streams as parallel arrays, one entry per request.

    Requests are grouped by stream, each stream's in its own order.  A
    request is one contiguous byte range of one region, possibly several
    consecutive chunks of the stream merged.  Merging changes no row miss
    and no transfer time, but it hides the chunks' own row pieces, so
    each stream carries their burst count alongside.
    """

    stream: NDArray[np.int64]  #: index of the stream the request belongs to
    region: NDArray[np.int64]  #: index into that stream's region tuple
    offset: NDArray[np.int64]  #: byte offset within the region
    nbytes: NDArray[np.int64]  #: request length in bytes (positive)
    write: NDArray[np.bool_]
    #: per stream: bursts of every chunk, each cut at row boundaries
    bursts: NDArray[np.int64]


#: Most pieces one :func:`split_at` call may expand to.  Planning the six
#: paper networks at 64 and 1024 KiB needs at most 23,068 per call; an
#: in-bounds corner layer on a large GLB can ask for billions, which
#: would allocate far past the host's memory instead of failing cleanly.
MAX_SPLIT_PIECES = 1 << 22


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
    count = int(pieces.sum())
    if count > MAX_SPLIT_PIECES:
        raise ValueError(f"DRAM lowering needs {count} pieces, over {MAX_SPLIT_PIECES}")
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
    """Replay a hand-built access stream through the row-buffer state machine.

    Each access is one chunk, so the stream's bursts are its row pieces'.
    """
    offset = np.array([a.offset for a in accesses], dtype=np.int64)
    nbytes = np.array([a.nbytes for a in accesses], dtype=np.int64)
    pieces = split_at(offset, nbytes, spec.row_bytes)[2]
    requests = DramRequests(
        stream=np.zeros(offset.size, dtype=np.int64),
        region=np.array([a.region for a in accesses], dtype=np.int64),
        offset=offset,
        nbytes=nbytes,
        write=np.array([a.write for a in accesses], dtype=np.bool_),
        bursts=np.array([((pieces + (spec.burst_bytes - 1)) // spec.burst_bytes).sum()]),
    )
    return simulate_streams(requests, (regions,), spec, mapping)[0]


def simulate_streams(
    requests: DramRequests,
    layers: Sequence[tuple[Region, ...]],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> list[DramStats]:
    """Replay a batch of streams, each on its own device, in one array pass.

    ``layers[k]`` holds the regions stream ``k`` addresses.  A single
    stream is a batch of one.
    """
    with get_tracer().start(
        "dram_batch",
        mapping=mapping.name,
        streams_count=len(layers),
        requests_count=requests.nbytes.size,
    ) as span:
        stats, segments, stall_events = _simulate(requests, layers, spec, mapping)
        total = combine_stats(stats)
        span.set_attr("segments_count", segments)
        span.set_attr("stall_events_count", stall_events)
        span.set_attr("row_hits_count", total.row_hits)
        span.set_attr("row_misses_count", total.row_misses)
        span.set_attr("total_bytes", total.total_bytes)
    registry = metrics_registry()
    registry.counter("dram_row_hits_count").add(total.row_hits)
    registry.counter("dram_row_misses_count").add(total.row_misses)
    registry.counter("dram_activations_count").add(total.activations)
    registry.counter("dram_reads_bytes").add(total.reads_bytes)
    registry.counter("dram_writes_bytes").add(total.writes_bytes)
    return stats


def stable_order(keys: NDArray[np.int64], bound: int) -> NDArray[np.intp]:
    """Stable argsort of integers in ``[0, bound)``.

    NumPy radix-sorts 16-bit keys, several times faster than its merge
    sort of 64-bit ones, so keys that fit are narrowed first.
    """
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def first_regions(layers: Sequence[tuple[Region, ...]]) -> NDArray[np.int64]:
    """Batch-wide index of each stream's first region, as a joint
    :meth:`~repro.dram.mapping.MappingPolicy.layout` numbers them."""
    counts = np.array([len(regions) for regions in layers], dtype=np.int64)
    return np.cumsum(counts) - counts


def _simulate(
    requests: DramRequests,
    layers: Sequence[tuple[Region, ...]],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> tuple[list[DramStats], int, int]:
    """Stats of each stream, the batch's segment count and stall-event count."""
    count = len(layers)
    if not requests.nbytes.size:
        return [DramStats()] * count, 0, 0
    stream, nbytes, written = requests.stream, requests.nbytes, requests.write
    writes = np.bincount(stream[written], nbytes[written], count).astype(np.int64)
    reads = np.bincount(stream, nbytes, count).astype(np.int64) - writes

    # Row segments in request order, located in one array call.  Stream
    # ``k``'s channel ``c`` is lane ``c * streams + k``: lanes share no
    # bank and no bus, so every stream replays as if it ran alone.
    owner, offset, seg_bytes = split_at(requests.offset, nbytes, spec.row_bytes)[:3]
    stream = stream[owner]
    channel, bank, row = mapping.layout(spec, *layers).locate(
        first_regions(layers)[stream] + requests.region[owner], offset
    )
    lanes = spec.channels * count
    segments = seg_bytes.size

    # Lane order: each lane's segments contiguous and in request order.
    # Requests come stream by stream, so a stable sort by channel alone
    # puts the lanes in order.  Times are in units of 1/rate cycles, so a
    # segment's transfer lasts ``seg_bytes`` units and a running sum of
    # bytes is bus time.
    by_lane = stable_order(channel, spec.channels)
    stream = stream[by_lane]
    lane = channel[by_lane] * count + stream
    busy = np.bincount(lane, minlength=lanes)
    busy = busy[busy > 0]
    lasts = np.cumsum(busy) - 1  # each busy lane's last segment
    firsts = lasts - busy + 1  # ... and its first
    bank = bank[by_lane]
    row = row[by_lane]
    seg_bytes = seg_bytes[by_lane]
    done = np.cumsum(seg_bytes)  # stall-free bus time at each segment's end
    origin = done[firsts] - seg_bytes[firsts]  # ... at each lane's start

    # A stable sort by bank makes each segment's predecessor in its
    # (lane, bank) its neighbour: a different one means a cold bank, a
    # different row a row miss.
    by_bank = stable_order(bank, spec.banks_per_channel)
    key = (bank * lanes + lane)[by_bank]
    row = row[by_bank]
    cold = np.empty(segments, dtype=np.bool_)
    cold[0] = True
    np.not_equal(key[1:], key[:-1], out=cold[1:])
    miss = cold.copy()
    miss[1:] |= row[1:] != row[:-1]
    at = np.flatnonzero(miss)

    # Stall events: misses whose penalty exceeds the bus time since their
    # bank's previous segment ended (since the lane's start when cold).
    # Only they can push the lane's stall ``U`` up; every other segment
    # starts the moment the bus frees.
    cold = cold[at]
    position = by_bank[at]
    misses = np.bincount(stream[position], minlength=count)
    prev = np.where(cold, -1, by_bank[at - 1])
    slot = np.searchsorted(firsts, position, side="right") - 1  # busy lane
    rate = spec.channel_bytes_per_cycle
    slack = np.where(
        cold, spec.row_open_penalty * rate, spec.row_miss_penalty * rate
    ) - (done[position] - seg_bytes[position] - np.where(cold, origin[slot], done[prev]))
    event = np.flatnonzero(slack > 0)
    event = event[np.argsort(position[event])]
    position = position[event]
    slack = slack[event]
    prev = prev[event]
    slot = slot[event]

    # U_j of the previous segment is the running stall of the last event
    # at or before it in the same lane (0 when there is none).
    look = np.searchsorted(position, prev, side="right") - 1
    floor = np.searchsorted(position, firsts[slot])
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
    np.maximum.at(final, slot, np.array(stall, dtype=np.int64))
    units = np.zeros(count, dtype=np.int64)
    np.maximum.at(units, stream[firsts], done[lasts] - origin + final)

    stats = []
    for k, bursts in enumerate(requests.bursts.tolist()):
        read, write, miss_k = int(reads[k]), int(writes[k]), int(misses[k])
        total = read + write
        if total == 0:
            stats.append(DramStats())
            continue
        stats.append(
            DramStats(
                reads_bytes=read,
                writes_bytes=write,
                bursts=bursts,
                row_hits=bursts - miss_k,
                row_misses=miss_k,
                activations=miss_k,
                cycles=int(units[k]) / rate,
                ideal_cycles=total / spec.peak_bytes_per_cycle,
                act_energy_pj=miss_k * spec.act_pj,
                read_energy_pj=read * spec.read_pj_per_byte,
                write_energy_pj=write * spec.write_pj_per_byte,
            )
        )
    return stats, segments, len(stall)
