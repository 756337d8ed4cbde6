"""Figure 1: motivation — separate buffers vs a managed global buffer.

The paper's opening figure contrasts two layer shapes inspired by
ResNet18: case A needs most of its space for *filters*, case B for
*feature maps*.  A fixed separate-buffer split strands capacity in the
wrong buffer, while a managed global buffer serves either shape and can
spend leftover space on reuse (accesses goal) or prefetching (latency
goal).

We quantify that with two real ResNet18 layers: for each data type, the
fraction of its whole-layer footprint that fits (a) in a 50-50
double-buffered separate-buffer setup and (b) in the global buffer under
the policy Algorithm 1 picks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyzer import Objective
from ..arch.units import kib, to_kib
from ..report.table import Table
from .common import named_only_plan, spec_for

#: The two illustrative layers: filter-heavy (A) and feature-map-heavy (B).
CASE_LAYERS = {"A": "conv5_1b", "B": "conv2_1a"}


@dataclass(frozen=True)
class Fig1Case:
    case: str
    layer: str
    glb_kb: int  #: the global buffer's size
    need_kib: dict[str, float]  #: whole-layer footprint per data type
    separate_fit: dict[str, float]  #: fraction fitting the separate buffers
    glb_policy: str  #: policy the global-buffer manager picks
    glb_feasible: bool  #: the policy fits the same total capacity


def run(glb_kb: int = 64) -> list[Fig1Case]:
    """Quantify the motivation figure on real ResNet18 layers."""
    spec = spec_for(glb_kb)
    b = spec.bytes_per_elem
    # Separate-buffer capacities: 4 kB ofmap + 50/50 split, halved for
    # double buffering (the baseline setup of §4).
    ofmap_cap = kib(4) / 2
    rest = (kib(glb_kb) - kib(4)) / 2
    caps = {"ifmap": rest / 2, "filter": rest / 2, "ofmap": ofmap_cap}

    plan = named_only_plan("ResNet18", glb_kb, Objective.ACCESSES)
    assigned = {a.layer.name: a for a in plan}
    cases = []
    for case, layer_name in CASE_LAYERS.items():
        best = assigned[layer_name]
        layer = best.layer
        need = {
            "ifmap": layer.ifmap_elems * b,
            "filter": layer.filter_elems * b,
            "ofmap": layer.ofmap_elems * b,
        }
        cases.append(
            Fig1Case(
                case=case,
                layer=layer_name,
                glb_kb=glb_kb,
                need_kib={k: to_kib(v) for k, v in need.items()},
                separate_fit={k: min(1.0, caps[k] / need[k]) for k in need},
                glb_policy=best.label,
                glb_feasible=best.memory_bytes <= spec.glb_bytes,
            )
        )
    return cases


def to_table(cases: list[Fig1Case]) -> Table:
    """Render the experiment's rows as a report table."""
    table = Table(
        title=f"Figure 1: separate buffers vs managed global buffer ({cases[0].glb_kb} kB)",
        headers=[
            "Case",
            "Layer",
            "ifmap kB",
            "filter kB",
            "ofmap kB",
            "sep. fit i/f/o",
            "GLB policy",
            "GLB fits",
        ],
    )
    for c in cases:
        fit = "/".join(f"{c.separate_fit[k]:.0%}" for k in ("ifmap", "filter", "ofmap"))
        table.add_row(
            c.case,
            c.layer,
            round(c.need_kib["ifmap"], 1),
            round(c.need_kib["filter"], 1),
            round(c.need_kib["ofmap"], 1),
            fit,
            c.glb_policy,
            "yes" if c.glb_feasible else "no",
        )
    return table
