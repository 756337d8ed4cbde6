"""Regenerate ``expected.json``, the benchmark's correctness oracle.

Computes every output of every workload directly and in-process, in
canonical order and without the plan cache, and records SHA-256 digests:

* planning workloads: ``canonical_json(plan_to_dict(plan))`` and the
  explain payload of each config (every plan must pass ``verify_plan``);
* ``serve-zoo``: the response body of every endpoint x request body the
  mix can draw, once as a cache miss and once as a hit (the body differs
  only in ``result.cache.hit``).

Run it only when a change is meant to alter outputs, and say why::

    python bench/expected.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any

from workloads import ROOT, plan_configs, serve_configs

sys.path.insert(0, str(ROOT / "src"))
os.environ["REPRO_NO_CACHE"] = "1"

from worker import plan_digests, sha256  # noqa: E402

OUT = Path(__file__).resolve().parent / "expected.json"


def plans(workload: str) -> dict[str, dict[str, str]]:
    """Digests of every config of a planning workload."""
    from repro import DEFAULT_DDR4_SPEC, AcceleratorSpec, Objective, plan_heterogeneous
    from repro.arch.units import kib
    from repro.nn.zoo import get_model
    from repro.verify import verify_plan

    digests = {}
    for config in plan_configs(workload):
        spec = AcceleratorSpec(
            glb_bytes=kib(config.glb_kb), dram=DEFAULT_DDR4_SPEC if config.ddr4 else None
        )
        plan = plan_heterogeneous(
            get_model(config.model), spec, Objective(config.objective), interlayer=config.interlayer
        )
        report = verify_plan(plan)
        if not report.ok:
            raise SystemExit(f"{config.id} fails verification:\n{report.render()}")
        digests[config.id] = plan_digests(plan)
    return digests


def serve() -> dict[str, dict[str, str]]:
    """Miss and hit body digests of every request the mix can draw."""
    from repro.serve.handlers import execute
    from repro.serve.protocol import canonical_json

    digests = {}
    for config in serve_configs():
        for endpoint in ("plan", "explain", "simulate"):
            status, envelope = execute(endpoint, config.params())
            if status != 200:
                raise SystemExit(f"{endpoint} {config.id}: HTTP {status}: {envelope}")
            entry = {"miss": sha256(canonical_json(envelope))}
            envelope["result"]["cache"]["hit"] = True
            entry["hit"] = sha256(canonical_json(envelope))
            digests[f"{endpoint} {config.id}"] = entry
    return digests


def main() -> int:
    """Write ``expected.json`` next to this script."""
    expected: dict[str, Any] = {
        "plan-zoo-flat": plans("plan-zoo-flat"),
        "plan-zoo-ddr4": plans("plan-zoo-ddr4"),
        "serve-zoo": serve(),
    }
    OUT.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({sum(len(v) for v in expected.values())} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
