"""Declared bounds of the supported specification space.

The vectorized planner evaluates the Eq. (1)/(2) capacity and traffic
closed forms as NumPy ``int64`` arrays, where an overflow raises no
error: it silently wraps and corrupts plans.
:class:`~repro.nn.layer.LayerSpec`, :class:`~repro.nn.model.Model`,
:class:`~repro.arch.spec.AcceleratorSpec` and
:class:`~repro.dram.spec.DramSpec` reject inputs outside the space
declared here, and ``tests/test_spec_corners.py`` plans its corners, so
the validators and the tests agree on what "supported" means.

The bounds are deliberately generous relative to the paper's §4
configurations (16×16 PEs, ≤1 MiB GLB, ≤32-bit data, layer shapes from
LeNet/AlexNet/VGG16): roomy enough that no realistic CNN or sweep ever
trips validation, tight enough that the worst-case products stay far
inside ``int64``.

Two kinds of constants live here:

* **per-field caps** (feature dims, kernel dims, channels, widths,
  capacities) validated field by field; and
* **aggregate caps** (``MAX_LAYER_MACS``, ``MAX_TENSOR_ELEMS``)
  validated as *independent* constraints on each layer, because the
  corner "maximal spatial extent × maximal channels × maximal kernel
  simultaneously" is unphysical (FC layers flatten to huge channel
  counts precisely when their spatial extent is 1×1) and taking the
  product of per-field maxima would be uselessly loose.

The harness contract: every layer, budget and width the corner tests
plan is derived from these constants (each field at its cap, the MAC
and tensor caps saturated, GLBs from one element to ``MAX_GLB_BYTES``,
8- to ``MAX_DATA_WIDTH_BITS``-bit data, ``MAX_MODEL_LAYERS``-deep
models), and each plan must verify, carry only Python ``int`` counts
and match exact Python-int oracles.  Raising a bound here moves those
tests to the new corner.
"""

from __future__ import annotations

from .units import mib

#: Largest supported ifmap/ofmap spatial dimension (height or width).
MAX_FEATURE_DIM = 2048

#: Largest supported filter kernel dimension (height or width).
MAX_KERNEL_DIM = 16

#: Largest supported channel count (``in_c``, ``out_c``, ``num_filters``).
#: FC layers flatten their input into ``in_c`` (VGG16's first FC layer
#: consumes 25088 channels), so this is a per-field cap only; the
#: aggregate footprint and MAC caps below bound the products.
MAX_CHANNELS = 32768

#: Largest supported spatial padding.
MAX_PADDING = 8

#: Largest supported stride (bounded by the kernel for dense coverage).
MAX_STRIDE = MAX_KERNEL_DIM

#: Most layers one model may declare (validated by
#: :class:`~repro.nn.model.Model`; per-model sums scale linearly with it).
MAX_MODEL_LAYERS = 256

#: Widest supported element, in bits (the paper sweeps 8/16/32).
MAX_DATA_WIDTH_BITS = 32

#: Largest supported global-buffer capacity, in bytes.  There is no
#: lower bound beyond positivity: degenerate few-byte GLBs are valid
#: inputs (the infeasibility paths are tested with them).
MAX_GLB_BYTES = mib(64)

#: Largest supported off-chip bandwidth, in elements per accelerator
#: cycle.  The paper fixes 16; the headroom admits the bandwidth-sweep
#: experiments' "effectively infinite" endpoint (10⁴ elems/cycle).
MAX_DRAM_BANDWIDTH_ELEMS_PER_CYCLE = 16384.0

#: Largest supported peak operation rate, in scalar ops per cycle.
MAX_OPS_PER_CYCLE = 1 << 20

#: Largest supported PE-array dimension (rows or columns).
MAX_PE_DIM = 1024

#: Largest supported banked-DRAM capacity, in bytes (64 GiB).
MAX_DRAM_CAPACITY_BYTES = mib(64 * 1024)

#: Largest per-tensor footprint (padded ifmap, filters or ofmap), in
#: elements — an *independent* per-layer cap validated by
#: :class:`~repro.nn.layer.LayerSpec`, four orders of magnitude above
#: any bundled model's largest tensor (~2**25 elements).
MAX_TENSOR_ELEMS = 1 << 36

#: Largest per-layer MAC count — an *independent* per-layer cap
#: validated by :class:`~repro.nn.layer.LayerSpec`; VGG16's heaviest
#: convolution needs ~2**34 MACs.
MAX_LAYER_MACS = 1 << 52
