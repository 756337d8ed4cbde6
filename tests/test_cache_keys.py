"""Cache keys do not depend on the interpreter's hash seed.

Every persistent cache entry is addressed by a SHA-256 of its inputs, and
worker processes, the daemon and later runs must all derive the same key
from the same inputs.  Set and dict iteration order of strings varies
with ``PYTHONHASHSEED``, so an unsorted collection on the key path forks
keys between processes without failing anything else.  This test builds
a manifest of keys in two interpreters, under ``PYTHONHASHSEED`` 0 and 1,
and requires them to agree:

* ``plan_cache_key`` for every zoo model at 64 and 256 KiB under both
  objectives and every scheme (``het``, ``hom``, each ``hom(<family>)``,
  ``het+il`` in both modes and ``het(named-only)``), at 8- and 16-bit
  data and on ``DEFAULT_DDR4_SPEC``;
* the ``baseline`` and ``baseline-dataflow`` keys, taken from the code
  that stores those entries (its cache lookups are stubbed, so nothing
  is simulated);
* ``reply_key`` for ``plan``, ``explain`` and ``simulate`` requests.

The part without reply keys is also pinned as one SHA-256 in
``golden/cache_keys.json``; reply keys embed the source digest, so they
change with every edit and are compared only between the two processes.
An intentional key change regenerates the pin in the same change
(``python tests/test_cache_keys.py``) and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

GOLDEN = Path(__file__).resolve().parent / "golden" / "cache_keys.json"
SRC = Path(__file__).resolve().parent.parent / "src"

GLB_KB = (64, 256)


def manifest() -> dict[str, Any]:
    """Every pinned key, by kind and case label."""
    from repro import DEFAULT_DDR4_SPEC, AcceleratorSpec, Objective
    from repro.analyzer.planner import SCHEMES
    from repro.arch.units import kib
    from repro.experiments import ablations, cache
    from repro.manager import MemoryManager
    from repro.nn.zoo import ALL_MODEL_NAMES, get_model
    from repro.serve.handlers import reply_key

    plan_schemes = [(scheme, False, "opportunistic") for scheme in SCHEMES]
    plan_schemes += [("het", True, "opportunistic"), ("het", True, "joint")]
    plan_schemes += [("het(named-only)", False, "opportunistic")]
    specs = {}
    for glb_kb in GLB_KB:
        base = AcceleratorSpec(glb_bytes=kib(glb_kb))
        specs[f"{glb_kb}/w8"] = base
        specs[f"{glb_kb}/w16"] = replace(base, data_width_bits=16)
        specs[f"{glb_kb}/ddr4"] = replace(base, dram=DEFAULT_DDR4_SPEC)

    # Stub the cache's one lookup-compute-store path, so the baseline paths
    # report their keys and run nothing.
    dataflow_keys: list[str] = []
    cache.fetch = lambda key, compute: dataflow_keys.append(key) or (0, True)

    plans: dict[str, str] = {}
    baselines: dict[str, str] = {}
    for name in ALL_MODEL_NAMES:
        model = get_model(name)
        for label, spec in specs.items():
            for objective in Objective:
                for scheme, interlayer, mode in plan_schemes:
                    case = f"{name}/{label}/{objective.value}/{scheme}"
                    if interlayer:
                        case += f"+il({mode})"
                    plans[case] = cache.plan_cache_key(
                        scheme, model, spec, objective,
                        interlayer=interlayer, interlayer_mode=mode,
                    )
            _results, _hit, key = MemoryManager(spec).baselines_cached_detail(model)
            baselines[f"{name}/{label}"] = key

    dataflows: dict[str, list[str]] = {}
    for glb_kb in GLB_KB:
        for name in ALL_MODEL_NAMES:
            dataflow_keys.clear()
            ablations.baseline_dataflows((name,), glb_kb)
            dataflows[f"{name}/{glb_kb}"] = list(dataflow_keys)

    replies: dict[str, str | None] = {}
    variants = (
        {},
        {"glb_kb": 256, "data_width_bits": 16, "objective": "latency", "scheme": "hom"},
        {"interlayer": True, "interlayer_mode": "joint"},
    )
    for endpoint in ("plan", "explain", "simulate"):
        for name in ALL_MODEL_NAMES:
            for i, variant in enumerate(variants):
                params = {"model": name.lower(), **variant}
                replies[f"{endpoint}/{name}/{i}"] = reply_key(endpoint, params)
    return {
        "plan": plans,
        "baseline": baselines,
        "baseline-dataflow": dataflows,
        "reply": replies,
    }


def pinned_digest(keys: dict[str, Any]) -> str:
    """SHA-256 of the manifest without its source-dependent reply keys."""
    stable = {kind: value for kind, value in keys.items() if kind != "reply"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def manifest_under_seed(seed: int, cache_dir: Path) -> dict[str, Any]:
    """The manifest as a fresh interpreter with ``PYTHONHASHSEED=seed`` sees it."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    out = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def test_cache_keys_agree_across_hash_seeds_and_match_the_pin(tmp_path):
    first = manifest_under_seed(0, tmp_path / "cache0")
    second = manifest_under_seed(1, tmp_path / "cache1")
    assert first == second
    assert None not in first["reply"].values()
    assert len(set(first["plan"].values())) == len(first["plan"])
    assert pinned_digest(first) == json.loads(GOLDEN.read_text())["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(manifest(), sort_keys=True))
    else:
        keys = manifest()
        GOLDEN.write_text(
            json.dumps(
                {
                    "sha256": pinned_digest(keys),
                    "counts": {kind: len(value) for kind, value in keys.items()},
                },
                indent=2,
            )
            + "\n"
        )
