"""Accelerator specification.

The paper's memory-management flow (Fig. 4) takes "accelerator
specifications" as input: operations per cycle, data width, GLB size and
off-chip memory bandwidth.  :class:`AcceleratorSpec` captures exactly those,
plus the PE-array geometry needed by the systolic timing model shared with
the SCALE-Sim baseline.

Defaults follow §4 of the paper: a 16×16 PE array, 512 OPs/cycle (a MAC
takes two cycles, so 256 MACs/cycle peak), 8-bit data, and an off-chip
bandwidth of 16 elements per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .bounds import (
    MAX_DATA_WIDTH_BITS,
    MAX_DRAM_BANDWIDTH_ELEMS_PER_CYCLE,
    MAX_GLB_BYTES,
    MAX_OPS_PER_CYCLE,
    MAX_PE_DIM,
)
from .units import kib

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..dram.spec import DramSpec

#: GLB sizes evaluated throughout the paper (§4), in bytes.
PAPER_GLB_SIZES = (kib(64), kib(128), kib(256), kib(512), kib(1024))

#: Data widths swept in Fig. 7, in bits.
PAPER_DATA_WIDTHS = (8, 16, 32)


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static description of the simulated accelerator.

    Attributes
    ----------
    pe_rows, pe_cols:
        Dimensions of the processing-element array (systolic array for the
        baseline; for the proposed design only the aggregate MAC rate and the
        mapping-utilization model use them).
    ops_per_cycle:
        Peak scalar operations per cycle.  A multiply-accumulate counts as
        two operations (paper §4), so the peak MAC rate is half this value.
    data_width_bits:
        Width of one tensor element in bits (8 by default, swept in Fig. 7).
    glb_bytes:
        Capacity of the unified global buffer in bytes.
    dram_bandwidth_elems_per_cycle:
        Off-chip bandwidth expressed in *elements* per cycle (the paper fixes
        16 elements/cycle, matching the maximum average bandwidth it measured
        for the SCALE-Sim baseline).
    dram:
        Optional banked-DRAM device model (:class:`~repro.dram.DramSpec`).
        ``None`` — the default — keeps the flat-bandwidth model everywhere,
        bit-identical to the paper's figures; when set, the latency
        estimator, the step-level engine and the energy model price
        off-chip traffic through the row-buffer backend instead.
    """

    pe_rows: int = 16
    pe_cols: int = 16
    ops_per_cycle: int = 512
    data_width_bits: int = 8
    glb_bytes: int = kib(256)
    dram_bandwidth_elems_per_cycle: float = 16.0
    dram: DramSpec | None = None

    def __post_init__(self) -> None:
        problems = []
        if self.pe_rows <= 0 or self.pe_cols <= 0:
            problems.append(
                f"PE array dimensions must be positive, got "
                f"{self.pe_rows}x{self.pe_cols}"
            )
        if self.ops_per_cycle <= 0:
            problems.append(
                f"ops_per_cycle must be positive, got {self.ops_per_cycle}"
            )
        if self.data_width_bits % 8 != 0 or self.data_width_bits <= 0:
            problems.append(
                f"data_width_bits must be a positive multiple of 8, got "
                f"{self.data_width_bits}"
            )
        if self.glb_bytes <= 0:
            problems.append(f"glb_bytes must be positive, got {self.glb_bytes}")
        if not self.dram_bandwidth_elems_per_cycle > 0:  # NaN too
            problems.append(
                f"dram_bandwidth_elems_per_cycle must be positive, got "
                f"{self.dram_bandwidth_elems_per_cycle}"
            )
        # Upper bounds of the supported spec space (repro.arch.bounds):
        # the int64 closed forms are tested only inside them, so
        # accepting a larger spec would trade a loud ValueError here for
        # a silent wraparound later.
        if self.pe_rows > MAX_PE_DIM or self.pe_cols > MAX_PE_DIM:
            problems.append(
                f"PE array dimensions must be at most {MAX_PE_DIM}, got "
                f"{self.pe_rows}x{self.pe_cols}"
            )
        if self.ops_per_cycle > MAX_OPS_PER_CYCLE:
            problems.append(
                f"ops_per_cycle must be at most {MAX_OPS_PER_CYCLE}, got "
                f"{self.ops_per_cycle}"
            )
        if self.data_width_bits > MAX_DATA_WIDTH_BITS:
            problems.append(
                f"data_width_bits must be at most {MAX_DATA_WIDTH_BITS}, "
                f"got {self.data_width_bits}"
            )
        if self.glb_bytes > MAX_GLB_BYTES:
            problems.append(
                f"glb_bytes must be at most {MAX_GLB_BYTES}, got "
                f"{self.glb_bytes}"
            )
        if self.dram_bandwidth_elems_per_cycle > MAX_DRAM_BANDWIDTH_ELEMS_PER_CYCLE:
            problems.append(
                f"dram_bandwidth_elems_per_cycle must be at most "
                f"{MAX_DRAM_BANDWIDTH_ELEMS_PER_CYCLE}, got "
                f"{self.dram_bandwidth_elems_per_cycle}"
            )
        if problems:
            raise ValueError("invalid AcceleratorSpec: " + "; ".join(problems))

    @property
    def bytes_per_elem(self) -> int:
        """Size of one tensor element in bytes."""
        return self.data_width_bits // 8  # repro: noqa[R004] -- the canonical bits->bytes boundary

    @property
    def macs_per_cycle(self) -> float:
        """Peak multiply-accumulate rate (one MAC = two ops, paper §4)."""
        return self.ops_per_cycle / 2.0

    @property
    def num_pes(self) -> int:
        """Total number of processing elements."""
        return self.pe_rows * self.pe_cols

    @property
    def dram_bandwidth_bytes_per_cycle(self) -> float:
        """Off-chip bandwidth in bytes per cycle for the configured width."""
        return self.dram_bandwidth_elems_per_cycle * self.bytes_per_elem

    @property
    def glb_elems(self) -> int:
        """GLB capacity expressed in elements of the configured width."""
        return self.glb_bytes // self.bytes_per_elem

    def with_glb(self, glb_bytes: int) -> "AcceleratorSpec":
        """Return a copy of this spec with a different GLB capacity."""
        return replace(self, glb_bytes=glb_bytes)

    def with_data_width(self, bits: int) -> "AcceleratorSpec":
        """Return a copy of this spec with a different element width."""
        return replace(self, data_width_bits=bits)

    def with_dram(self, dram: DramSpec | None) -> "AcceleratorSpec":
        """Return a copy backed by ``dram`` (``None`` restores flat mode)."""
        return replace(self, dram=dram)

    def transfer_cycles(self, nbytes: float) -> float:
        """Cycles to move ``nbytes`` across the off-chip interface."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        return nbytes / self.dram_bandwidth_bytes_per_cycle


#: The paper's reference configuration (§4), 256 kB GLB variant.
DEFAULT_SPEC = AcceleratorSpec()
