"""Benchmark harness helpers.

Each benchmark regenerates one paper artifact end to end.  The experiment
layer memoizes plans at two levels — an in-process ``lru_cache`` and the
persistent on-disk cache (:mod:`repro.experiments.cache`) — which is right
for interactive use but would let measured benchmark rounds hit caches.
The whole benchmark session therefore runs against an isolated temporary
cache directory, and ``fresh`` clears both levels so every measured round
does the full analysis.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.experiments import cache, common

#: The benchmark session never reads/writes the user's real plan cache.
_BENCH_CACHE_DIR = tempfile.mkdtemp(prefix="repro-bench-cache-")
os.environ[cache.ENV_CACHE_DIR] = _BENCH_CACHE_DIR


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
