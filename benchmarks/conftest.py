"""Benchmark harness helpers.

Each benchmark regenerates one paper artifact end to end.  The experiment
layer memoizes plans at two levels — an in-process ``lru_cache`` and the
persistent on-disk cache (:mod:`repro.experiments.cache`) — which is right
for interactive use but would let measured benchmark rounds hit caches.
The whole benchmark session therefore runs against an isolated temporary
cache directory, and ``fresh`` clears both levels so every measured round
does the full analysis.

Every benchmark session additionally emits two perf-trajectory artifacts
next to the repository root (CI uploads both):

* ``BENCH_dram.json`` — wall-clock time to plan ResNet18 at a 1 MiB GLB on
  a DRAM-backed spec plus the banked-DRAM simulated transfer cycles per
  mapping policy;
* ``BENCH_experiments.json`` — the experiment engine's smoke subset run
  cold and then warm through the persistent cache with ``--jobs 2``
  semantics, recording per-artifact wall time, cache hits/misses and the
  warm-over-cold speedup (outputs are asserted bit-identical).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments import cache, common

#: The benchmark session never reads/writes the user's real plan cache.
_BENCH_CACHE_DIR = tempfile.mkdtemp(prefix="repro-bench-cache-")
os.environ[cache.ENV_CACHE_DIR] = _BENCH_CACHE_DIR

#: Fast artifact subset exercised by the engine perf record.
SMOKE_ARTIFACTS = ["table2", "fig1", "fig6", "fig9", "dram-sweep"]


def clear_experiment_caches() -> None:
    common.clear_in_process_caches()
    cache.clear()


@pytest.fixture
def fresh():
    clear_experiment_caches()
    yield
    clear_experiment_caches()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under pytest-benchmark (sweeps are too heavy for
    statistical rounds; one round still yields a timing row)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _dram_benchmark_record() -> dict:
    from repro.arch import AcceleratorSpec, mib
    from repro.dram import DEFAULT_DDR4_SPEC, MAPPING_NAMES, simulate_plan_dram
    from repro.manager import MemoryManager
    from repro.nn.zoo import get_model

    spec = AcceleratorSpec(glb_bytes=mib(1)).with_dram(DEFAULT_DDR4_SPEC)
    model = get_model("ResNet18")
    start = time.perf_counter()
    plan = MemoryManager(spec).plan(model, interlayer=True)
    plan_seconds = time.perf_counter() - start
    mappings = {}
    for name in MAPPING_NAMES:
        stats = simulate_plan_dram(plan, mapping=name).total
        mappings[name] = {
            "cycles": stats.cycles,
            "ideal_cycles": stats.ideal_cycles,
            "row_hit_rate": stats.row_hit_rate,
            "energy_pj": stats.energy_pj,
        }
    return {
        "model": model.name,
        "glb_bytes": spec.glb_bytes,
        "plan_seconds": plan_seconds,
        "plan_latency_cycles": plan.total_latency_cycles,
        "dram": mappings,
    }


def _experiments_benchmark_record() -> dict:
    """Cold-vs-warm engine run over the smoke subset (2 workers)."""
    from repro.experiments.engine import run_experiments

    clear_experiment_caches()
    cold = run_experiments(SMOKE_ARTIFACTS, jobs=2)
    common.clear_in_process_caches()  # keep the on-disk cache warm
    warm = run_experiments(SMOKE_ARTIFACTS, jobs=2)
    identical = [t.render() for t in cold.tables] == [t.render() for t in warm.tables]
    clear_experiment_caches()
    return {
        "artifacts": SMOKE_ARTIFACTS,
        "bit_identical_warm_rerun": identical,
        "warm_speedup": (
            cold.total_seconds / warm.total_seconds if warm.total_seconds else None
        ),
        "cold": cold.bench_record(),
        "warm": warm.bench_record(),
    }


def pytest_sessionfinish(session, exitstatus):
    """Write the perf-trajectory JSONs at the repo root after every run."""
    if exitstatus != 0 or session.config.option.collectonly:
        return
    root = Path(__file__).resolve().parent.parent
    (root / "BENCH_dram.json").write_text(
        json.dumps(_dram_benchmark_record(), indent=2) + "\n"
    )
    (root / "BENCH_experiments.json").write_text(
        json.dumps(_experiments_benchmark_record(), indent=2) + "\n"
    )
