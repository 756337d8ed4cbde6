"""Banked DRAM model: row-buffer-aware off-chip traffic and timing.

The paper (and the rest of this library by default) prices off-chip
traffic with a flat bandwidth constant.  This subsystem models what that
constant abstracts away: a :class:`DramSpec` describes a banked device
(channels, banks, rows, tRCD/tRP/tCAS timing, per-operation energy),
pluggable :mod:`mapping <repro.dram.mapping>` policies place each operand
tensor's bytes onto (channel, bank, row) coordinates, and a trace-driven
:mod:`backend <repro.dram.backend>` replays the per-step load/store
schedules the policies already emit, returning row hits/misses,
activation counts, effective bandwidth, stall cycles and energy.

The flat model remains the default everywhere: only an
:class:`~repro.arch.AcceleratorSpec` constructed with ``dram=DramSpec(...)``
switches the latency estimator and the step-level engine to the
backend's effective bandwidth, so all paper artifacts are unchanged.
See ``docs/dram.md``.
"""

from .backend import (
    DramAccess,
    DramRequests,
    DramStats,
    combine_stats,
    simulate_accesses,
    simulate_streams,
)
from .mapping import (
    MAPPING_NAMES,
    MAPPING_POLICIES,
    AddressLayout,
    BankInterleavedMapping,
    MappingPolicy,
    Region,
    ReuseAwareMapping,
    RowMajorMapping,
    get_mapping,
    partition_banks,
)
from .planstats import (
    LayerDramResult,
    PlanDramResult,
    simulate_plan_dram,
)
from .spec import DEFAULT_DDR4_SPEC, KNOWN_MAPPINGS, DramSpec
from .trace import (
    clear_dram_memo,
    dram_effective_bandwidth,
    layer_regions,
    schedule_requests,
    simulate_schedule,
    simulate_schedules,
)

__all__ = [
    "DramSpec",
    "DEFAULT_DDR4_SPEC",
    "KNOWN_MAPPINGS",
    "DramAccess",
    "DramRequests",
    "DramStats",
    "combine_stats",
    "simulate_accesses",
    "simulate_streams",
    "MappingPolicy",
    "AddressLayout",
    "Region",
    "RowMajorMapping",
    "BankInterleavedMapping",
    "ReuseAwareMapping",
    "MAPPING_POLICIES",
    "MAPPING_NAMES",
    "get_mapping",
    "partition_banks",
    "layer_regions",
    "schedule_requests",
    "simulate_schedule",
    "simulate_schedules",
    "dram_effective_bandwidth",
    "clear_dram_memo",
    "LayerDramResult",
    "PlanDramResult",
    "simulate_plan_dram",
]
