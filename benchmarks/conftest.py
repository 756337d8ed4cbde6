"""Paper-artifact suite helpers.

Each test regenerates one paper artifact end to end and asserts the
paper's claims about it; timing is the job of the benchmark of record in
``bench/``.  The experiment layer memoizes plans at two levels — an
in-process ``lru_cache`` and the persistent on-disk cache
(:mod:`repro.experiments.cache`) — which is right for interactive use but
would let a test check a plan some earlier run left behind.  The whole
session therefore runs against an isolated temporary cache directory, and
``fresh`` clears both levels so every test does the full analysis.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.experiments import cache, common

#: The session never reads/writes the user's real plan cache.
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
