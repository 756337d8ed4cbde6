"""Golden digests of flat-DRAM plans: exports and audit trails stay bit-identical.

Each case plans one paper zoo model on the flat DRAM model at 64 or
256 KiB under one objective and one management scheme (``het``,
``het+il``, ``het+il(joint)`` or the best ``hom``), and compares the
SHA-256 of the canonical ``plan_to_dict`` export and of the explain
payload with ``golden/flat_plans.json``.  Extra ``het`` cases cover
ResNet18 at 128 KiB under latency, and the zoo at 32 KiB and at 1 KiB,
where the tile search tiles width-wise.  The explain digest pins the
decision trail byte for byte.  An intentional plan change regenerates
the file in the same change (``python tests/test_flat_golden.py``) and
says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import AcceleratorSpec, Objective, best_homogeneous, plan_heterogeneous
from repro.analyzer.export import plan_to_dict
from repro.arch.units import kib
from repro.nn.zoo import PAPER_MODEL_NAMES, get_model
from repro.serve.protocol import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "flat_plans.json"

GLB_KB = (64, 256)
OBJECTIVES = (Objective.ACCESSES, Objective.LATENCY)
SCHEMES = ("het", "het+il", "het+il(joint)", "hom")

CASES = [
    (model, glb_kb, objective, scheme)
    for model in PAPER_MODEL_NAMES
    for glb_kb in GLB_KB
    for objective in OBJECTIVES
    for scheme in SCHEMES
] + [
    ("ResNet18", 128, Objective.LATENCY, "het"),
    # 1 KiB is the only zoo budget where the tile search's width-wise
    # branch engages; 32 KiB is a mid-pressure point between them.
    *(
        (model, glb_kb, objective, "het")
        for glb_kb in (1, 32)
        for model in PAPER_MODEL_NAMES
        for objective in OBJECTIVES
    ),
]


def case_id(model: str, glb_kb: int, objective: Objective, scheme: str) -> str:
    return f"{model}/{glb_kb}/{objective.value}/{scheme}"


def digests(
    model: str, glb_kb: int, objective: Objective, scheme: str
) -> dict[str, str]:
    """SHA-256 of the plan export and of its explain payload."""
    net = get_model(model)
    spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
    if scheme == "hom":
        plan = best_homogeneous(net, spec, objective)
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
        "explain": hashlib.sha256(
            canonical_json(plan.explain().to_payload())
        ).hexdigest(),
    }


@pytest.mark.parametrize(
    ("model", "glb_kb", "objective", "scheme"),
    CASES,
    ids=[case_id(*case) for case in CASES],
)
def test_flat_plan_matches_golden(model, glb_kb, objective, scheme):
    expected = json.loads(GOLDEN.read_text())[case_id(model, glb_kb, objective, scheme)]
    assert digests(model, glb_kb, objective, scheme) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case_id(*case): digests(*case) for case in CASES}, indent=2) + "\n"
    )
