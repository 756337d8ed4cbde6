"""DRAM data-mapping policies: tensor address → (channel, bank, row).

A mapping policy decides where each byte of each operand tensor lives in
the banked DRAM geometry of a :class:`~repro.dram.spec.DramSpec`.  The
policy determines how often the access stream re-opens rows (row-buffer
misses) and how much channel/bank parallelism it can exploit — DRMap and
PENDRAM show the same byte count can differ by >2× in latency and energy
across mappings.  Three policies are provided:

``row_major``
    Contiguous allocation with channel/bank in the high address bits: a
    tensor fills the rows of one bank before spilling to the next.  All
    operands of a layer land in the same bank of the same channel, so the
    interleaved per-step load/store streams conflict on every switch and
    only one channel is ever busy — the classic untuned baseline.

``bank_interleaved``
    Consecutive row-sized blocks rotate across channels, then banks
    (``Ro-Ba-Ch-Co`` order).  Sequential streams engage every channel and
    bank round-robin, so activations overlap transfers in other banks and
    both buses run in parallel.

``reuse_aware``
    DRMap-style operand-aware placement: the banks of every channel are
    partitioned among the layer's operand tensors proportionally to their
    off-chip traffic (each operand gets at least one bank), and each
    operand row-interleaves across its own partition.  Streams of
    different operands can never evict each other's open rows, so the
    per-step ifmap/filter/ofmap interleaving causes no conflicts at all.

Policies resolve the :class:`Region` lists of one or more layers into an
:class:`AddressLayout` once, then the backend locates every row segment
of a whole batch of access streams in one array-valued ``locate`` call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .spec import DramSpec

#: (channel, bank, row) coordinate arrays, one entry per located offset.
Coordinates = tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64]]


@dataclass(frozen=True)
class Region:
    """One operand tensor's DRAM allocation.

    Attributes
    ----------
    name:
        Operand name (``"ifmap"``, ``"filters"``, ``"ofmap"``).
    index:
        Position in the layer's region list (stable operand id).
    base:
        Byte address of the region start (row-aligned by the trace
        generator).
    size:
        Region footprint in bytes.
    traffic:
        Total bytes the schedule moves through this region; the
        reuse-aware policy weights its bank partition by this.
    """

    name: str
    index: int
    base: int
    size: int
    traffic: int = 0

    def __post_init__(self) -> None:
        if self.index < 0 or self.base < 0 or self.size <= 0 or self.traffic < 0:
            raise ValueError(f"region {self.name!r}: invalid geometry")


class AddressLayout(abc.ABC):
    """A resolved placement: (region, byte offset) → (channel, bank, row).

    Regions are numbered across the layers the layout was resolved for:
    region ``i`` of the ``k``-th layer is index ``i`` plus the region
    counts of the layers before it.  Each layer keeps its own placement.
    """

    @abc.abstractmethod
    def locate(
        self, region: NDArray[np.int64], offset: NDArray[np.int64]
    ) -> Coordinates:
        """DRAM coordinates of the row-block containing each ``offset``.

        ``region`` and ``offset`` are equal-length arrays of region indices
        and byte offsets within those regions.
        """


class MappingPolicy(abc.ABC):
    """A DRAM data-mapping policy (one of the module's three families)."""

    #: Stable identifier used in specs, CLI flags and report tables.
    name: str = ""

    @abc.abstractmethod
    def layout(self, spec: DramSpec, *layers: tuple[Region, ...]) -> AddressLayout:
        """Resolve the regions of each layer into one address layout."""


def _region_bases(layers: tuple[tuple[Region, ...], ...]) -> NDArray[np.int64]:
    return np.array(
        [region.base for regions in layers for region in regions], dtype=np.int64
    )


class _RowMajorLayout(AddressLayout):
    """Contiguous layout: row fastest, then bank, then channel."""

    def __init__(self, spec: DramSpec, layers: tuple[tuple[Region, ...], ...]) -> None:
        self._spec = spec
        self._bases = _region_bases(layers)

    def locate(
        self, region: NDArray[np.int64], offset: NDArray[np.int64]
    ) -> Coordinates:
        spec = self._spec
        block = (self._bases[region] + offset) // spec.row_bytes
        row = block % spec.rows_per_bank
        rest = block // spec.rows_per_bank
        bank = rest % spec.banks_per_channel
        channel = (rest // spec.banks_per_channel) % spec.channels
        return channel, bank, row


class RowMajorMapping(MappingPolicy):
    """Baseline contiguous allocation (channel/bank in the high bits)."""

    name = "row_major"

    def layout(self, spec: DramSpec, *layers: tuple[Region, ...]) -> AddressLayout:
        """Resolve the regions of each layer into one address layout."""
        return _RowMajorLayout(spec, layers)


class _BankInterleavedLayout(AddressLayout):
    """Row-block round-robin across channels, then banks."""

    def __init__(self, spec: DramSpec, layers: tuple[tuple[Region, ...], ...]) -> None:
        self._spec = spec
        self._bases = _region_bases(layers)

    def locate(
        self, region: NDArray[np.int64], offset: NDArray[np.int64]
    ) -> Coordinates:
        spec = self._spec
        block = (self._bases[region] + offset) // spec.row_bytes
        channel = block % spec.channels
        rest = block // spec.channels
        bank = rest % spec.banks_per_channel
        row = (rest // spec.banks_per_channel) % spec.rows_per_bank
        return channel, bank, row


class BankInterleavedMapping(MappingPolicy):
    """Row-block interleaving across channels and banks."""

    name = "bank_interleaved"

    def layout(self, spec: DramSpec, *layers: tuple[Region, ...]) -> AddressLayout:
        """Resolve the regions of each layer into one address layout."""
        return _BankInterleavedLayout(spec, layers)


def partition_banks(
    banks: int, weights: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """Split ``banks`` into per-region (start, count) shares by weight.

    Every region receives at least one bank when ``banks >= len(weights)``;
    the remainder is distributed by largest weight (ties to the earlier
    region, keeping the split deterministic).  With more regions than
    banks, regions wrap around and share banks round-robin.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("at least one region is required")
    if banks < n:
        return tuple((i % banks, 1) for i in range(n))
    counts = [1] * n
    spare = banks - n
    total = sum(weights)
    if total > 0 and spare > 0:
        exact = [spare * w / total for w in weights]
        floors = [int(e) for e in exact]
        for i, f in enumerate(floors):
            counts[i] += f
        leftover = spare - sum(floors)
        order = sorted(range(n), key=lambda i: (-(exact[i] - floors[i]), i))
        for i in order[:leftover]:
            counts[i] += 1
    elif spare > 0:
        for i in range(spare):
            counts[i % n] += 1
    starts: list[tuple[int, int]] = []
    cursor = 0
    for count in counts:
        starts.append((cursor, count))
        cursor += count
    return tuple(starts)


class _ReuseAwareLayout(AddressLayout):
    """Per-operand bank partitions, row-interleaved within each partition."""

    def __init__(self, spec: DramSpec, layers: tuple[tuple[Region, ...], ...]) -> None:
        self._spec = spec
        shares = [
            share
            for regions in layers
            for share in partition_banks(
                spec.banks_per_channel,
                tuple(r.traffic if r.traffic > 0 else r.size for r in regions),
            )
        ]
        self._starts = np.array([start for start, _ in shares], dtype=np.int64)
        self._counts = np.array([count for _, count in shares], dtype=np.int64)

    def locate(
        self, region: NDArray[np.int64], offset: NDArray[np.int64]
    ) -> Coordinates:
        spec = self._spec
        count = self._counts[region]
        block = offset // spec.row_bytes
        channel = block % spec.channels
        k = block // spec.channels
        bank = self._starts[region] + k % count
        row = (k // count) % spec.rows_per_bank
        return channel, bank, row


class ReuseAwareMapping(MappingPolicy):
    """DRMap-style placement: operands get traffic-weighted bank partitions."""

    name = "reuse_aware"

    def layout(self, spec: DramSpec, *layers: tuple[Region, ...]) -> AddressLayout:
        """Resolve the regions of each layer into one address layout."""
        return _ReuseAwareLayout(spec, layers)


#: name → policy instance, in presentation order (baseline first).
MAPPING_POLICIES: dict[str, MappingPolicy] = {
    policy.name: policy
    for policy in (RowMajorMapping(), BankInterleavedMapping(), ReuseAwareMapping())
}

#: All mapping-policy names, in presentation order.
MAPPING_NAMES: tuple[str, ...] = tuple(MAPPING_POLICIES)


def get_mapping(name: str) -> MappingPolicy:
    """Look up a mapping policy by name (raises ``KeyError`` on unknown)."""
    try:
        return MAPPING_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown DRAM mapping {name!r}; available: {', '.join(MAPPING_NAMES)}"
        ) from None
