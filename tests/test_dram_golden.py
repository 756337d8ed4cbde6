"""Golden digests of DDR4-backed plans: the banked-DRAM path stays bit-identical.

Each case plans one model at 256 KiB with ``DEFAULT_DDR4_SPEC`` under one
mapping policy and objective (plus two 128 KiB cases on the default
mapping), and compares the SHA-256 of the canonical
``plan_to_dict`` export and of the explain payload with
``golden/ddr4_plans.json``.  An intentional plan change regenerates the
file in the same change (``python tests/test_dram_golden.py``) and says
why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import DEFAULT_DDR4_SPEC, AcceleratorSpec, Objective, plan_heterogeneous
from repro.analyzer.export import plan_to_dict
from repro.arch.units import kib
from repro.dram import MAPPING_NAMES
from repro.nn.zoo import get_model
from repro.serve.protocol import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "ddr4_plans.json"

MODELS = ("ResNet18", "MobileNet")
GLB_KB = 256
OBJECTIVES = (Objective.ACCESSES, Objective.LATENCY)

CASES = [
    (model, GLB_KB, mapping, objective)
    for model in MODELS
    for mapping in MAPPING_NAMES
    for objective in OBJECTIVES
] + [
    ("MobileNet", 128, DEFAULT_DDR4_SPEC.mapping, Objective.LATENCY),
    ("ResNet18", 128, DEFAULT_DDR4_SPEC.mapping, Objective.ACCESSES),
]


def case_id(model: str, glb_kb: int, mapping: str, objective: Objective) -> str:
    return f"{model}/{glb_kb}/{mapping}/{objective.value}"


def digests(
    model: str, glb_kb: int, mapping: str, objective: Objective
) -> dict[str, str]:
    """SHA-256 of the plan export and of its explain payload."""
    dram = dataclasses.replace(DEFAULT_DDR4_SPEC, mapping=mapping)
    spec = AcceleratorSpec(glb_bytes=kib(glb_kb), dram=dram)
    plan = plan_heterogeneous(get_model(model), spec, objective)
    return {
        "plan": hashlib.sha256(canonical_json(plan_to_dict(plan))).hexdigest(),
        "explain": hashlib.sha256(
            canonical_json(plan.explain().to_payload())
        ).hexdigest(),
    }


@pytest.mark.parametrize(
    ("model", "glb_kb", "mapping", "objective"),
    CASES,
    ids=[case_id(*case) for case in CASES],
)
def test_ddr4_plan_matches_golden(model, glb_kb, mapping, objective):
    expected = json.loads(GOLDEN.read_text())[
        case_id(model, glb_kb, mapping, objective)
    ]
    assert digests(model, glb_kb, mapping, objective) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case_id(*case): digests(*case) for case in CASES}, indent=2) + "\n"
    )
