"""Golden digests of flat-DRAM plans: exports and audit trails stay bit-identical.

Each case plans one paper zoo model on the flat DRAM model at 64 or
256 KiB under one objective and one management scheme (``het``,
``het+il``, ``het+il(joint)``, the best ``hom`` or ``hom(<family>)`` for
each named policy family), and compares the SHA-256 of the canonical
``plan_to_dict`` export and of the explain payload with
``golden/flat_plans.json``.  Extra ``het`` cases cover ResNet18 at
128 KiB under latency, and the zoo at 32 KiB and at 1 KiB, where the
tile search tiles width-wise (at 1 KiB also every ``hom`` scheme, whose
families fall back to the tile search there); MnasNet at 128, 512 and
1024 KiB; AlexNet under latency at off-chip bandwidths of 4, 16 and 64
elements/cycle; and the ``het(named-only)`` ablation (the tile search
only rescues layers no named policy fits) for the zoo at 1, 8, 64 and
256 KiB under both objectives, and for ResNet18 and EfficientNetB0 at
128 KiB.  The explain digest pins the decision trail byte for byte.  The
rendered ``fig1`` table, whose two layers take their policy from the
named-only selection, is pinned at 16 to 256 KiB.  An intentional plan
change regenerates the file in the same change
(``python tests/test_flat_golden.py``) and says why.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    AcceleratorSpec,
    Objective,
    best_homogeneous,
    plan_heterogeneous,
    plan_homogeneous,
)
from repro.analyzer import plan_named_only
from repro.analyzer.export import plan_to_dict
from repro.arch.units import kib
from repro.experiments import fig1
from repro.nn.zoo import PAPER_MODEL_NAMES, get_model
from repro.policies.registry import NAMED_POLICIES
from repro.serve.protocol import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "flat_plans.json"

GLB_KB = (64, 256)
OBJECTIVES = (Objective.ACCESSES, Objective.LATENCY)
HOM_SCHEMES = ("hom", *(f"hom({policy.name})" for policy in NAMED_POLICIES))
SCHEMES = ("het", "het+il", "het+il(joint)", *HOM_SCHEMES)
#: The reference off-chip bandwidth (elements/cycle); case ids name any other.
BANDWIDTH = AcceleratorSpec().dram_bandwidth_elems_per_cycle

CASES = [
    (model, glb_kb, objective, scheme, BANDWIDTH)
    for model in PAPER_MODEL_NAMES
    for glb_kb in GLB_KB
    for objective in OBJECTIVES
    for scheme in SCHEMES
] + [
    ("ResNet18", 128, Objective.LATENCY, "het", BANDWIDTH),
    # 1 KiB is the only zoo budget where the tile search's width-wise
    # branch engages; 32 KiB is a mid-pressure point between them.
    *(
        (model, glb_kb, objective, "het", BANDWIDTH)
        for glb_kb in (1, 32)
        for model in PAPER_MODEL_NAMES
        for objective in OBJECTIVES
    ),
    *(
        (model, 1, objective, scheme, BANDWIDTH)
        for model in PAPER_MODEL_NAMES
        for objective in OBJECTIVES
        for scheme in HOM_SCHEMES
    ),
    # A GLB ladder's upper rungs, a bandwidth ladder, and the rescue-only
    # ablation's ladder.
    *(
        ("MnasNet", glb_kb, Objective.ACCESSES, "het", BANDWIDTH)
        for glb_kb in (128, 512, 1024)
    ),
    *(
        ("AlexNet", 256, Objective.LATENCY, "het", bandwidth)
        for bandwidth in (4.0, 16.0, 64.0)
    ),
    *(
        (model, glb_kb, objective, "het(named-only)", BANDWIDTH)
        for model in PAPER_MODEL_NAMES
        for glb_kb in (1, 8, 64, 256)
        for objective in OBJECTIVES
    ),
    *(
        (model, 128, Objective.ACCESSES, "het(named-only)", BANDWIDTH)
        for model in ("ResNet18", "EfficientNetB0")
    ),
]
FIG1_GLB_KB = (16, 32, 64, 128, 256)


def case_id(
    model: str, glb_kb: int, objective: Objective, scheme: str, bandwidth: float
) -> str:
    case = f"{model}/{glb_kb}/{objective.value}/{scheme}"
    return case if bandwidth == BANDWIDTH else f"{case}/bw{bandwidth:g}"


def digests(
    model: str, glb_kb: int, objective: Objective, scheme: str, bandwidth: float
) -> dict[str, str]:
    """SHA-256 of the plan export and of its explain payload."""
    net = get_model(model)
    spec = replace(
        AcceleratorSpec(glb_bytes=kib(glb_kb)),
        dram_bandwidth_elems_per_cycle=bandwidth,
    )
    if scheme == "hom":
        plan = best_homogeneous(net, spec, objective)
    elif scheme.startswith("hom("):
        plan = plan_homogeneous(net, spec, scheme[4:-1], objective)
    elif scheme == "het(named-only)":
        plan = plan_named_only(net, spec, objective)
    else:
        plan = plan_heterogeneous(
            net,
            spec,
            objective,
            interlayer=scheme != "het",
            interlayer_mode="joint" if scheme == "het+il(joint)" else "opportunistic",
        )
    return {
        "plan": hashlib.sha256(canonical_json(plan_to_dict(plan))).hexdigest(),
        "explain": hashlib.sha256(canonical_json(plan.explain().to_payload())).hexdigest(),
    }


def fig1_digest(glb_kb: int) -> dict[str, str]:
    """SHA-256 of the rendered ``fig1`` table at one GLB size."""
    text = fig1.to_table(fig1.run(glb_kb)).render()
    return {"table": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize(
    ("model", "glb_kb", "objective", "scheme", "bandwidth"),
    CASES,
    ids=[case_id(*case) for case in CASES],
)
def test_flat_plan_matches_golden(model, glb_kb, objective, scheme, bandwidth):
    case = (model, glb_kb, objective, scheme, bandwidth)
    expected = json.loads(GOLDEN.read_text())[case_id(*case)]
    assert digests(*case) == expected


@pytest.mark.parametrize("glb_kb", FIG1_GLB_KB)
def test_fig1_table_matches_golden(glb_kb):
    assert fig1_digest(glb_kb) == json.loads(GOLDEN.read_text())[f"fig1/{glb_kb}"]


if __name__ == "__main__":
    golden = {case_id(*case): digests(*case) for case in CASES}
    golden.update({f"fig1/{glb_kb}": fig1_digest(glb_kb) for glb_kb in FIG1_GLB_KB})
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
