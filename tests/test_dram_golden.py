"""Golden digests of DDR4-backed plans: the banked-DRAM path stays bit-identical.

Each case plans one model at 256 KiB with ``DEFAULT_DDR4_SPEC`` under one
mapping policy and objective (plus two 128 KiB cases on the default
mapping), and compares the SHA-256 of the canonical
``plan_to_dict`` export and of the explain payload with
``golden/ddr4_plans.json``.  The same file pins what pricing a plan
reports: the per-layer :class:`~repro.dram.DramStats` that
``simulate_plan_dram`` gives each paper model's flat ``Het`` plan at 64
and 256 KiB on ``DEFAULT_DDR4_SPEC`` under every mapping, and the stdout
of ``repro dram --all --glb 256``.  An intentional change regenerates the
file in the same change (``python tests/test_dram_golden.py``) and says
why.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro import DEFAULT_DDR4_SPEC, AcceleratorSpec, Objective, plan_heterogeneous
from repro.analyzer.export import plan_to_dict
from repro.arch.units import kib
from repro.cli import main
from repro.dram import MAPPING_NAMES, simulate_plan_dram
from repro.nn.zoo import PAPER_MODEL_NAMES, get_model
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


#: Flat ``Het`` plans whose per-layer DRAM statistics are pinned.
STATS_CASES = [(model, glb_kb) for model in PAPER_MODEL_NAMES for glb_kb in (64, 256)]
CLI_ARGS = ("dram", "--all", "--glb", "256")


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


def stats_case_id(model: str, glb_kb: int) -> str:
    return f"{model}/{glb_kb}/flat-het/dram-stats"


def stats_digests(model: str, glb_kb: int) -> dict[str, str]:
    """SHA-256 of the per-layer DRAM statistics of the flat ``Het`` plan, per mapping."""
    plan = plan_heterogeneous(get_model(model), AcceleratorSpec(glb_bytes=kib(glb_kb)))
    return {
        result.mapping: hashlib.sha256(
            canonical_json(
                [
                    [layer.name, layer.policy, dataclasses.asdict(layer.stats)]
                    for layer in result.layers
                ]
            )
        ).hexdigest()
        for result in simulate_plan_dram(plan, DEFAULT_DDR4_SPEC, MAPPING_NAMES)
    }


def cli_digest() -> dict[str, str]:
    """SHA-256 of the stdout of ``repro dram --all --glb 256``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(CLI_ARGS)) == 0
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


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


@pytest.mark.parametrize(
    ("model", "glb_kb"), STATS_CASES, ids=[stats_case_id(*case) for case in STATS_CASES]
)
def test_plan_dram_stats_match_golden(model, glb_kb):
    expected = json.loads(GOLDEN.read_text())[stats_case_id(model, glb_kb)]
    assert stats_digests(model, glb_kb) == expected


def test_cli_dram_sweep_matches_golden():
    assert cli_digest() == json.loads(GOLDEN.read_text())[" ".join(CLI_ARGS)]


if __name__ == "__main__":
    golden = {case_id(*case): digests(*case) for case in CASES}
    golden.update({stats_case_id(*case): stats_digests(*case) for case in STATS_CASES})
    golden[" ".join(CLI_ARGS)] = cli_digest()
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
