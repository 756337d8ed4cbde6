"""Banked DRAM device specification.

The paper converts off-chip access counts to cycles with a single flat
bandwidth constant (16 elements/cycle, §4).  Real DRAM does not deliver a
flat rate: each bank buffers one open *row* (page), a hit in the open row
streams at the bus rate while a miss costs a precharge + activate round
trip, and channels/banks provide parallelism that a mapping policy may or
may not exploit (DRMap, PENDRAM).  :class:`DramSpec` captures the handful
of parameters this model needs — geometry (channels, banks, rows), timing
(tRCD/tRP/tCAS in accelerator cycles) and per-operation energy — so the
trace-driven backend in :mod:`repro.dram.backend` can price a plan's
actual address stream instead of a byte count.

The default spec is DDR4-2400-like, scaled to the paper's accelerator
clock, and its **peak** bandwidth (``channels × channel_bytes_per_cycle``)
equals the paper's flat 16 bytes/cycle — so the flat model is exactly the
idealized, zero-overhead limit of this one, and DRAM-aware latencies are
lower-bounded by the paper's numbers (verifier code ``V018``).

This module is deliberately near-leaf-level: it imports only the
:mod:`repro.arch.bounds` constants (themselves leaf-level) so that
:mod:`repro.arch.spec` can reference it without an import cycle, and so
that the capacity ceiling it validates is the declared one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.bounds import MAX_DRAM_CAPACITY_BYTES

#: Mapping-policy names accepted by :attr:`DramSpec.mapping`
#: (mirrored by :data:`repro.dram.mapping.MAPPING_NAMES`; kept here so the
#: spec can validate without importing the policy classes).
KNOWN_MAPPINGS = ("row_major", "bank_interleaved", "reuse_aware")


@dataclass(frozen=True)
class DramSpec:
    """Static description of the off-chip DRAM behind the accelerator.

    Attributes
    ----------
    channels:
        Independent channels, each with its own data bus and banks.
    banks_per_channel:
        Banks per channel; each bank holds one open row at a time.
    rows_per_bank:
        Rows per bank (fixes the capacity and the row-major layout).
    row_bytes:
        Bytes per row (the row-buffer/page size).
    burst_bytes:
        Bytes one burst transfers; row hit/miss statistics are counted at
        burst granularity.
    channel_bytes_per_cycle:
        Data-bus throughput of one channel, in bytes per accelerator
        cycle.  ``channels × channel_bytes_per_cycle`` is the peak
        bandwidth; the default matches the paper's flat 16 bytes/cycle.
    t_rcd, t_rp, t_cas:
        Activate (RAS-to-CAS), precharge and CAS latencies, in accelerator
        cycles.
    mapping:
        Name of the default data-mapping policy
        (:data:`repro.dram.mapping.MAPPING_POLICIES`).
    act_pj:
        Energy of one row activation + precharge pair, in picojoules.
    read_pj_per_byte, write_pj_per_byte:
        Burst transfer energy per byte read/written.
    """

    channels: int = 2
    banks_per_channel: int = 8
    rows_per_bank: int = 32768
    row_bytes: int = 2048
    burst_bytes: int = 64
    channel_bytes_per_cycle: int = 8
    t_rcd: int = 14
    t_rp: int = 14
    t_cas: int = 14
    mapping: str = "bank_interleaved"
    act_pj: float = 1500.0
    read_pj_per_byte: float = 120.0
    write_pj_per_byte: float = 130.0

    def __post_init__(self) -> None:
        problems: list[str] = []
        for name in (
            "channels",
            "banks_per_channel",
            "rows_per_bank",
            "row_bytes",
            "burst_bytes",
            "channel_bytes_per_cycle",
        ):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("t_rcd", "t_rp", "t_cas"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("act_pj", "read_pj_per_byte", "write_pj_per_byte"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.burst_bytes > 0 and self.row_bytes > 0 and self.row_bytes % self.burst_bytes:
            problems.append(
                f"row_bytes ({self.row_bytes}) must be a multiple of "
                f"burst_bytes ({self.burst_bytes})"
            )
        if self.mapping not in KNOWN_MAPPINGS:
            problems.append(
                f"mapping must be one of {', '.join(KNOWN_MAPPINGS)}, got {self.mapping!r}"
            )
        # The supported-spec-space ceiling (repro.arch.bounds): address
        # arithmetic in the trace backend is only tested inside it.
        capacity = (
            self.channels
            * self.banks_per_channel
            * self.rows_per_bank
            * self.row_bytes
        )
        if capacity > MAX_DRAM_CAPACITY_BYTES:
            problems.append(
                f"device capacity must be at most {MAX_DRAM_CAPACITY_BYTES} "
                f"bytes, got {capacity}"
            )
        if problems:
            raise ValueError("invalid DramSpec: " + "; ".join(problems))

    # Derived geometry ---------------------------------------------------

    @property
    def total_banks(self) -> int:
        """Banks across all channels."""
        return self.channels * self.banks_per_channel

    @property
    def bank_bytes(self) -> int:
        """Capacity of one bank."""
        return self.rows_per_bank * self.row_bytes

    @property
    def capacity_bytes(self) -> int:
        """Total device capacity."""
        return self.total_banks * self.bank_bytes

    @property
    def peak_bytes_per_cycle(self) -> float:
        """Zero-overhead (all channels busy, all hits) bandwidth."""
        return float(self.channels * self.channel_bytes_per_cycle)

    # Derived timing -----------------------------------------------------

    @property
    def row_miss_penalty(self) -> int:
        """Extra cycles of a row-buffer conflict (precharge + activate + CAS)."""
        return self.t_rp + self.t_rcd + self.t_cas

    @property
    def row_open_penalty(self) -> int:
        """Extra cycles of the first access to an idle (closed) bank."""
        return self.t_rcd + self.t_cas

    def transfer_cycles(self, nbytes: int) -> float:
        """Data-bus occupancy of ``nbytes`` on one channel (no overheads)."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        return nbytes / self.channel_bytes_per_cycle


#: The bundled DDR4-like reference device (see module docstring).
DEFAULT_DDR4_SPEC = DramSpec()
