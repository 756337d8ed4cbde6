"""The benchmark's workloads: fixed input sets and the seeded serve mix.

Pure Python with no ``repro`` import, so the parent process of a run
(``run.py``) stays small and the input sets can be tested on their own.
The seed draws the ``serve-zoo`` request sequence; the other workloads
run a fixed input set in a fixed order.  Every possible output is in
``expected.json``, so every seed is checked against the same oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: Repository root (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent

#: The six networks of the paper's Table 2, in table order.
PAPER_MODELS: tuple[str, ...] = (
    "EfficientNetB0",
    "GoogLeNet",
    "MnasNet",
    "MobileNet",
    "MobileNetV2",
    "ResNet18",
)

#: The paper's GLB ladder in KiB (64 KiB to 1 MiB).
GLB_LADDER_KB: tuple[int, ...] = (64, 128, 256, 512, 1024)

#: Models and GLB sizes of the banked-DRAM workload.  The first size of
#: each model pays for its DRAM memo (1-3 s) and the later two reuse it
#: (30-310 ms).  All six paper models took 14-28 s per cold pass, so a run
#: held one pass, and its time was one sample of a host whose speed swings
#: within seconds.  These three take about 7 s, so a run takes several
#: passes and reports their median.  64 KiB is left out: there the six
#: models took 22 of the 28 s of a pass.
DDR4_MODELS: tuple[str, ...] = ("MnasNet", "MobileNet", "ResNet18")
DDR4_GLB_KB: tuple[int, ...] = (256, 512, 1024)

#: The warm-up plan's GLB size: outside every ladder, so the timed pass
#: never finds its evaluations memoized.
WARMUP_GLB_KB = 96
WARMUP_MODEL = "ResNet18"

OBJECTIVES: tuple[str, ...] = ("accesses", "latency")

#: Requests per serve round and the endpoint weights per 100 requests.
SERVE_REQUESTS = 1000
SERVE_MIX: tuple[tuple[str, int], ...] = (("plan", 70), ("explain", 15), ("simulate", 15))

#: name -> why it exists (also the ``why`` lines of BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "plan-zoo-flat": "cold plan_heterogeneous over zoo x GLB ladder x objectives x inter-layer: the vectorized planner core",
    "plan-zoo-ddr4": "cold DDR4 planning: per-candidate evaluation plus DRAM trace simulation, which flat planning never runs",
    "serve-zoo": "closed-loop client on a fresh daemon: mostly cache hits (read path) plus planning misses and cache writes",
}


@dataclass(frozen=True)
class PlanConfig:
    """One planning problem: a model at one GLB size and set of flags."""

    model: str
    glb_kb: int
    objective: str
    interlayer: bool
    ddr4: bool = False

    @property
    def id(self) -> str:
        """Stable identifier, the key of this config in ``expected.json``."""
        reuse = "il" if self.interlayer else "noil"
        memory = "ddr4" if self.ddr4 else "flat"
        return f"{self.model}/{self.glb_kb}/{self.objective}/{reuse}/{memory}"

    def params(self) -> dict[str, object]:
        """The config as a ``repro serve`` request body."""
        return {
            "model": self.model,
            "glb_kb": self.glb_kb,
            "objective": self.objective,
            "interlayer": self.interlayer,
        }


def plan_configs(workload: str) -> list[PlanConfig]:
    """The input set of a planning workload, in the order it is planned.

    The order is fixed, whatever the seed.  The planner's memos are shared
    across plans, so the order decides which plan pays for what.  With the
    model order permuted by seed, ``op_p95_ms`` of ``plan-zoo-flat`` sat
    at 44.7-47.3 ms for some seeds and 51.3-54.9 ms for others, and the
    peak memory of ``plan-zoo-ddr4`` ranged from 62.8 to 74.1 MB.
    """
    if workload == "plan-zoo-flat":
        return [
            PlanConfig(model, glb_kb, objective, interlayer)
            for model in PAPER_MODELS
            for glb_kb in GLB_LADDER_KB
            for objective in OBJECTIVES
            for interlayer in (False, True)
        ]
    if workload == "plan-zoo-ddr4":
        return [
            PlanConfig(model, glb_kb, "accesses", False, ddr4=True)
            for model in DDR4_MODELS
            for glb_kb in DDR4_GLB_KB
        ]
    raise KeyError(f"{workload!r} is not a planning workload")


def serve_configs() -> list[PlanConfig]:
    """Every request body the serve mix can draw (6 x 5 x 2 x 2)."""
    return [
        PlanConfig(model, glb_kb, objective, interlayer)
        for model in PAPER_MODELS
        for glb_kb in GLB_LADDER_KB
        for objective in OBJECTIVES
        for interlayer in (False, True)
    ]


def serve_mix(seed: int, count: int = SERVE_REQUESTS) -> list[tuple[str, PlanConfig]]:
    """The seed's request sequence: ``(endpoint, config)`` pairs.

    A string seed hashes through SHA-512, so the sequence does not depend
    on ``PYTHONHASHSEED`` or the platform.
    """
    rng = random.Random(f"serve-zoo:{seed}")
    configs = serve_configs()
    endpoints = [endpoint for endpoint, _ in SERVE_MIX]
    weights = [weight for _, weight in SERVE_MIX]
    return [
        (rng.choices(endpoints, weights)[0], rng.choice(configs))
        for _ in range(count)
    ]


def serve_cache_key(endpoint: str, config: PlanConfig) -> tuple[object, ...]:
    """What the daemon's plan cache keys a request on.

    ``plan`` and ``explain`` share one plan entry; ``simulate`` caches the
    baselines per (model, GLB) whatever the objective or inter-layer flag.
    The first request for a key is the miss.
    """
    if endpoint == "simulate":
        return ("baseline", config.model, config.glb_kb)
    return ("plan", config.model, config.glb_kb, config.objective, config.interlayer)

