"""One counter per cache event: every cache report reads the registry.

``/stats``, ``repro cache stats`` and the experiment engine's hit, miss
and store columns all come from the ``plan_cache_*_count`` metrics.
Each test drives a known cache sequence and compares every report with
the registry's deltas over it.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.experiments import cache, common
from repro.experiments.engine import run_experiments
from repro.obs import Snapshot, metrics_registry
from repro.serve.server import ReproServer

EVENTS = ("hits", "misses", "stores", "evictions")


@pytest.fixture(autouse=True)
def cache_dir(tmp_path, monkeypatch):
    """A fresh cache, fresh in-process memos and a zeroed registry."""
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    monkeypatch.delenv(cache.ENV_CACHE_MAX_MB, raising=False)
    common.clear_in_process_caches()
    metrics_registry().reset()
    yield tmp_path / "cache"
    common.clear_in_process_caches()


def _delta(before: Snapshot, after: Snapshot) -> dict[str, int]:
    """The ``plan_cache_<event>_count`` deltas between two snapshots."""
    counts = {}
    for event in EVENTS:
        name = f"plan_cache_{event}_count"
        old, new = before["counters"].get(name, 0.0), after["counters"].get(name, 0.0)
        assert isinstance(old, float) and isinstance(new, float)
        counts[event] = int(new - old)
    return counts


def test_stats_endpoint_and_cli_report_the_registry_counters(capsys):
    before = metrics_registry().snapshot()
    key = cache.make_key("counters", n=1)
    assert cache.lookup(key) == (False, None)  # one miss
    cache.store(key, b"x" * 1000)  # one store
    assert cache.lookup(key)[0]  # one hit
    assert cache.prune(0).evicted_count == 1  # one forced eviction
    delta = _delta(before, metrics_registry().snapshot())
    assert delta == {"hits": 1, "misses": 1, "stores": 1, "evictions": 1}

    server = ReproServer("127.0.0.1", 0, jobs=0)
    try:
        status, body = server.dispatch("stats")
    finally:
        server.close()
    assert status == 200
    counters = json.loads(body)["result"]["cache"]["counters"]
    assert counters == delta
    assert all(type(value) is int for value in counters.values())

    assert main(["cache", "stats"]) == 0
    rows = dict(
        re.findall(r"^(\w+) \(this process\)\s*\|\s*(\d+)", capsys.readouterr().out, re.M)
    )
    assert {event: int(value) for event, value in rows.items()} == delta


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_columns_equal_the_registry_deltas(jobs):
    for temperature in ("cold", "warm"):
        common.clear_in_process_caches()
        before = metrics_registry().snapshot()
        report = run_experiments(["dram-sweep"], jobs=jobs)
        in_process = _delta(before, metrics_registry().snapshot())
        columns = {
            "hits": sum(r.cache_hits for r in report.results),
            "misses": sum(r.cache_misses for r in report.results),
            "stores": sum(r.cache_stores for r in report.results),
        }
        # The report's metrics merge the counts of every process that ran.
        merged = _delta({"counters": {}}, report.metrics)
        assert columns == {event: merged[event] for event in columns}
        assert (report.cache_hits, report.cache_misses) == (
            merged["hits"], merged["misses"]
        )
        if jobs == 1:
            assert in_process == merged
        else:
            # Pool workers count their lookups in their own processes.
            assert in_process == dict.fromkeys(EVENTS, 0)
        if temperature == "cold":
            assert merged["misses"] > 0 and merged["stores"] > 0
        else:
            assert merged["misses"] == 0 and merged["hits"] > 0
