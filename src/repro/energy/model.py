"""Energy cost model for memory traffic and compute.

The paper motivates access reduction with energy: "off-chip data
transfers are the most energy costly operations, approximately 10–100×
of the energy for a local computation" (§2.3, citing Li et al.).  The
evaluation reports accesses, not joules, so this module is an
*extension*: it converts a plan's (or the baseline's) traffic and MAC
counts into energy with a configurable cost model, letting users compare
schemes on the metric the paper ultimately argues about.

Defaults follow the widely used 45 nm numbers from Horowitz (ISSCC'14),
normalized per byte / per MAC:

* DRAM access        ≈ 160 pJ/byte  (1.3 nJ per 64-bit word)
* large SRAM access  ≈ 1.25 pJ/byte (tens-of-kB scratchpad)
* 8-bit MAC          ≈ 0.23 pJ      (0.2 pJ mult + 0.03 pJ add)

giving a ≈128× DRAM:SRAM ratio — inside the paper's 10–100× per-element
band once data width is accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyzer.plan import ExecutionPlan
from ..scalesim.simulator import SimulationResult


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy costs in picojoules."""

    dram_pj_per_byte: float = 160.0
    sram_pj_per_byte: float = 1.25
    mac_pj: float = 0.23

    def __post_init__(self) -> None:
        if min(self.dram_pj_per_byte, self.sram_pj_per_byte, self.mac_pj) < 0:
            raise ValueError("energy costs must be non-negative")

    @property
    def dram_sram_ratio(self) -> float:
        """How much costlier an off-chip byte is than an on-chip one."""
        if self.sram_pj_per_byte == 0:
            return float("inf")
        return self.dram_pj_per_byte / self.sram_pj_per_byte


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one inference, split by component (picojoules).

    Under the flat model ``dram_pj`` is traffic × cost-per-byte and the
    three DRAM sub-components are zero.  With a banked
    :class:`~repro.dram.DramSpec` on the plan's accelerator, ``dram_pj``
    is instead the trace-simulated device energy and the activation /
    read / write split is reported alongside.
    """

    dram_pj: float
    sram_pj: float
    mac_pj: float
    dram_act_pj: float = 0.0
    dram_read_pj: float = 0.0
    dram_write_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return self.dram_pj + self.sram_pj + self.mac_pj

    @property
    def total_uj(self) -> float:
        return self.total_pj / 1e6

    @property
    def dram_share(self) -> float:
        return self.dram_pj / self.total_pj if self.total_pj else 0.0


#: Default cost model (Horowitz ISSCC'14-derived, see module docstring).
DEFAULT_ENERGY_MODEL = EnergyModel()


def _sram_bytes_for_macs(macs: int, dram_bytes: int, bytes_per_elem: int) -> int:
    """On-chip traffic estimate: every MAC reads two operands and writes
    one partial sum through the local hierarchy, plus every DRAM byte
    crosses the scratchpad once on its way in/out.

    Stays in exact integer arithmetic — the byte count can exceed
    ``2**53``, where a float64 intermediate would silently round.
    """
    return 3 * macs * bytes_per_elem + dram_bytes


def plan_energy(
    plan: ExecutionPlan, model: EnergyModel = DEFAULT_ENERGY_MODEL
) -> EnergyBreakdown:
    """Energy of an execution plan under the cost model.

    With a banked :class:`~repro.dram.DramSpec` on ``plan.spec`` the
    off-chip component comes from the trace-driven backend (per-activation
    plus per-byte read/write costs from the device spec) instead of the
    flat ``dram_pj_per_byte`` constant, and the activation/read/write
    split is populated.
    """
    dram_bytes = plan.total_accesses_bytes
    macs = plan.model.total_macs
    sram_bytes = _sram_bytes_for_macs(macs, dram_bytes, plan.spec.bytes_per_elem)
    if plan.spec.dram is not None:
        from ..dram.planstats import simulate_plan_dram

        stats = simulate_plan_dram(plan)[0].total
        return EnergyBreakdown(
            dram_pj=stats.energy_pj,
            sram_pj=sram_bytes * model.sram_pj_per_byte,
            mac_pj=macs * model.mac_pj,
            dram_act_pj=stats.act_energy_pj,
            dram_read_pj=stats.read_energy_pj,
            dram_write_pj=stats.write_energy_pj,
        )
    return EnergyBreakdown(
        dram_pj=dram_bytes * model.dram_pj_per_byte,
        sram_pj=sram_bytes * model.sram_pj_per_byte,
        mac_pj=macs * model.mac_pj,
    )


def baseline_energy(
    result: SimulationResult, model: EnergyModel = DEFAULT_ENERGY_MODEL
) -> EnergyBreakdown:
    """Energy of a baseline simulation under the cost model."""
    dram_bytes = result.total_traffic_bytes
    macs = sum(layer.workload.macs for layer in result.layers)
    sram_bytes = _sram_bytes_for_macs(macs, dram_bytes, result.config.bytes_per_elem)
    return EnergyBreakdown(
        dram_pj=dram_bytes * model.dram_pj_per_byte,
        sram_pj=sram_bytes * model.sram_pj_per_byte,
        mac_pj=macs * model.mac_pj,
    )
