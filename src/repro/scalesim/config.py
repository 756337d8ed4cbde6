"""Configuration of the SCALE-Sim-style baseline accelerator.

The paper's baseline (§4) is a 16×16 output-stationary systolic array
simulated with SCALE-Sim, with *separate* double-buffered SRAMs per data
type: a fixed 4 kB ofmap buffer and the remaining capacity split between
the ifmap and filter buffers in a fixed ratio (25-75, 50-50 or 75-25).
SCALE-Sim's double buffering halves the usable capacity of each buffer
("instead of requiring additional space, the assigned buffer size is
divided in half").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..arch.units import kib


class Dataflow(enum.Enum):
    """Systolic-array dataflows supported by the baseline model."""

    OS = "os"  #: output stationary (the paper's baseline)
    WS = "ws"  #: weight stationary
    IS = "is"  #: input stationary


@dataclass(frozen=True)
class ScaleSimConfig:
    """Static configuration of the baseline systolic-array accelerator."""

    array_rows: int = 16
    array_cols: int = 16
    dataflow: Dataflow = Dataflow.OS
    ifmap_buf_bytes: int = kib(30)
    filter_buf_bytes: int = kib(30)
    ofmap_buf_bytes: int = kib(4)
    data_width_bits: int = 8
    #: SCALE-Sim-style double buffering: half of each buffer holds the
    #: active working set, the other half prefetches.
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ValueError("array dimensions must be positive")
        if min(self.ifmap_buf_bytes, self.filter_buf_bytes, self.ofmap_buf_bytes) <= 0:
            raise ValueError("buffer sizes must be positive")
        if self.data_width_bits % 8 != 0 or self.data_width_bits <= 0:
            raise ValueError("data_width_bits must be a positive multiple of 8")

    @property
    def bytes_per_elem(self) -> int:
        return self.data_width_bits // 8  # repro: noqa[R004] -- the canonical bits->bytes boundary

    @property
    def total_sram_bytes(self) -> int:
        return self.ifmap_buf_bytes + self.filter_buf_bytes + self.ofmap_buf_bytes

    def _working(self, nbytes: int) -> int:
        """Usable working-set elements of a buffer (half if double-buffered)."""
        usable = nbytes // 2 if self.double_buffered else nbytes
        return max(1, usable // self.bytes_per_elem)

    @property
    def ifmap_working_elems(self) -> int:
        return self._working(self.ifmap_buf_bytes)

    @property
    def filter_working_elems(self) -> int:
        return self._working(self.filter_buf_bytes)
