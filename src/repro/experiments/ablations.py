"""Ablation studies for the design choices DESIGN.md calls out.

Three ablations, none of which exist in the paper:

* **Inter-layer planning mode** — the paper applies ofmap donations
  opportunistically after policy selection; our joint chain DP co-selects
  policies and donations.  How much does joint optimization buy?
* **Tile-search participation** — our heterogeneous planner lets the
  generic band-tile search compete with the named policies (guaranteeing
  Het ≤ Hom); Algorithm 1 as written uses it only as a rescue.  What do
  the named policies alone leave on the table?
* **Baseline dataflow** — the paper's baseline is output-stationary; how
  do WS/IS change the zero-stall compute time the proposed design is
  compared against?
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..arch.units import kib, reduction_pct
from ..nn.zoo import get_model
from ..report.table import Table
from ..scalesim.config import Dataflow
from ..scalesim.presets import baseline_config
from ..scalesim.simulator import simulate
from . import cache
from .common import GLB_SIZES_KB, het_plan, named_only_plan

# ----------------------------------------------------------------------
# Ablation 1: opportunistic vs joint inter-layer planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InterlayerAblationRow:
    model: str
    glb_kb: int
    opportunistic_coverage: float
    joint_coverage: float
    opportunistic_benefit_pct: float  #: access reduction vs no inter-layer
    joint_benefit_pct: float

    @property
    def joint_extra_benefit_pct(self) -> float:
        return self.joint_benefit_pct - self.opportunistic_benefit_pct


def interlayer_modes(
    model_name: str = "MnasNet", glb_sizes_kb: tuple[int, ...] = GLB_SIZES_KB
) -> list[InterlayerAblationRow]:
    """Compare the two inter-layer planning modes per buffer size."""
    rows = []
    for glb_kb in glb_sizes_kb:
        base = het_plan(model_name, glb_kb)
        opp = het_plan(model_name, glb_kb, interlayer=True)
        joint = het_plan(model_name, glb_kb, interlayer=True, interlayer_mode="joint")
        rows.append(
            InterlayerAblationRow(
                model=model_name,
                glb_kb=glb_kb,
                opportunistic_coverage=opp.interlayer_coverage,
                joint_coverage=joint.interlayer_coverage,
                opportunistic_benefit_pct=reduction_pct(
                    opp.total_accesses_bytes, base.total_accesses_bytes
                ),
                joint_benefit_pct=reduction_pct(
                    joint.total_accesses_bytes, base.total_accesses_bytes
                ),
            )
        )
    return rows


def interlayer_modes_table(rows: list[InterlayerAblationRow]) -> Table:
    """Render the experiment's rows as a report table."""
    table = Table(
        title=f"Ablation: inter-layer planning mode ({rows[0].model})",
        headers=["GLB kB", "opp. cov", "joint cov", "opp. benefit", "joint benefit", "joint extra"],
    )
    for r in rows:
        table.add_row(
            r.glb_kb,
            f"{r.opportunistic_coverage:.0%}",
            f"{r.joint_coverage:.0%}",
            f"{r.opportunistic_benefit_pct:+.1f}%",
            f"{r.joint_benefit_pct:+.1f}%",
            f"{r.joint_extra_benefit_pct:+.1f}%",
        )
    return table


# ----------------------------------------------------------------------
# Ablation 2: tile search competing vs rescue-only
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FallbackAblationRow:
    model: str
    glb_kb: int
    named_only_mib: float  #: Het restricted to Algorithm 1's rescue-only search
    with_search_mib: float  #: Het with the search competing (our default)

    @property
    def search_benefit_pct(self) -> float:
        return 100.0 * (1.0 - self.with_search_mib / self.named_only_mib)


def fallback_participation(
    model_names: tuple[str, ...] = ("ResNet18", "EfficientNetB0"),
    glb_sizes_kb: tuple[int, ...] = (64, 128, 256),
) -> list[FallbackAblationRow]:
    """Quantify what letting the tile search compete buys Het."""
    rows = []
    for name in model_names:
        for glb_kb in glb_sizes_kb:
            named = named_only_plan(name, glb_kb)
            full = het_plan(name, glb_kb)
            rows.append(
                FallbackAblationRow(
                    model=name,
                    glb_kb=glb_kb,
                    named_only_mib=named.total_accesses_bytes / 2**20,
                    with_search_mib=full.total_accesses_bytes / 2**20,
                )
            )
    return rows


def fallback_participation_table(rows: list[FallbackAblationRow]) -> Table:
    """Render the experiment's rows as a report table."""
    table = Table(
        title="Ablation: tile search competing vs rescue-only (Het accesses)",
        headers=["Model", "GLB kB", "named-only MB", "with search MB", "benefit"],
    )
    for r in rows:
        table.add_row(
            r.model,
            r.glb_kb,
            round(r.named_only_mib, 2),
            round(r.with_search_mib, 2),
            f"{r.search_benefit_pct:+.1f}%",
        )
    return table


# ----------------------------------------------------------------------
# Ablation 3: baseline dataflow
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DataflowAblationRow:
    model: str
    os_cycles: int
    ws_cycles: int
    is_cycles: int


def baseline_dataflows(
    model_names: tuple[str, ...] = ("ResNet18", "MobileNet", "GoogLeNet"),
    glb_kb: int = 256,
) -> list[DataflowAblationRow]:
    """Zero-stall compute time of the baseline under OS/WS/IS dataflows."""
    rows = []
    for name in model_names:
        model = get_model(name)
        cycles = {}
        for dataflow in Dataflow:
            config = replace(baseline_config(kib(glb_kb), 0.5), dataflow=dataflow)
            key = cache.make_key(
                "baseline-dataflow",
                model=cache.model_digest(model),
                glb_kb=glb_kb,
                dataflow=dataflow.value,
            )
            cycles[dataflow] = cache.fetch(
                key, lambda: simulate(model, config).total_cycles
            )[0]
        rows.append(
            DataflowAblationRow(
                model=name,
                os_cycles=cycles[Dataflow.OS],
                ws_cycles=cycles[Dataflow.WS],
                is_cycles=cycles[Dataflow.IS],
            )
        )
    return rows


def baseline_dataflows_table(rows: list[DataflowAblationRow]) -> Table:
    """Render the experiment's rows as a report table."""
    table = Table(
        title="Ablation: baseline systolic dataflow (zero-stall cycles)",
        headers=["Model", "OS", "WS", "IS"],
    )
    for r in rows:
        table.add_row(r.model, r.os_cycles, r.ws_cycles, r.is_cycles)
    return table
