"""Accelerator architecture description and unit helpers."""

from .bounds import (
    MAX_CHANNELS,
    MAX_DATA_WIDTH_BITS,
    MAX_DRAM_CAPACITY_BYTES,
    MAX_FEATURE_DIM,
    MAX_GLB_BYTES,
    MAX_KERNEL_DIM,
    MAX_LAYER_MACS,
    MAX_MODEL_LAYERS,
)
from .spec import (
    DEFAULT_SPEC,
    PAPER_DATA_WIDTHS,
    PAPER_GLB_SIZES,
    AcceleratorSpec,
)
from .units import KIB, MIB, ceil_div, kib, mib, pct_change, reduction_pct, to_kib, to_mib

__all__ = [
    "AcceleratorSpec",
    "DEFAULT_SPEC",
    "PAPER_GLB_SIZES",
    "PAPER_DATA_WIDTHS",
    "MAX_CHANNELS",
    "MAX_DATA_WIDTH_BITS",
    "MAX_DRAM_CAPACITY_BYTES",
    "MAX_FEATURE_DIM",
    "MAX_GLB_BYTES",
    "MAX_KERNEL_DIM",
    "MAX_LAYER_MACS",
    "MAX_MODEL_LAYERS",
    "KIB",
    "MIB",
    "kib",
    "mib",
    "to_kib",
    "to_mib",
    "ceil_div",
    "pct_change",
    "reduction_pct",
]
