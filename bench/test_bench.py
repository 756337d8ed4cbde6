"""Tests of the benchmark harness itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from dataclasses import dataclass

import pytest

import run
import stats
from workloads import (
    DDR4_MODELS,
    PAPER_MODELS,
    ROOT,
    SERVE_REQUESTS,
    WORKLOADS,
    plan_configs,
    serve_cache_key,
    serve_configs,
    serve_mix,
)

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

EXPECTED = json.loads((run.BENCH / "expected.json").read_text())


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    pid: int = 1
    tid: int = 1
    attrs: tuple[tuple[str, object], ...] = ()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def test_nearest_rank_percentiles() -> None:
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 0.5) == 3.0
    assert stats.nearest_rank(values, 0.95) == 5.0
    assert stats.nearest_rank(values, 0.0) == 1.0
    assert stats.nearest_rank(list(range(1, 101)), 0.95) == 95
    assert stats.nearest_rank(list(range(1, 101)), 0.99) == 99
    assert stats.nearest_rank([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_self_time_subtracts_only_direct_children_of_the_same_thread() -> None:
    spans = [
        Span("bench.analyzer.plan", 0, 100, attrs=(("model", "ResNet18"),)),
        Span("bench.estimators.evaluate_layer", 10, 40, attrs=(("layer", "conv1"),)),
        Span("bench.policies.plan", 15, 25),
        Span("bench.analyzer.select", 50, 60),
        # The program's own span is exported but never nests.
        Span("plan_layer", 5, 45),
        # Same interval, another thread: subtracts from nothing.
        Span("bench.serve.encode", 0, 100, tid=2),
        # Same thread id in another process: its own tree.
        Span("bench.serve.encode", 20, 30, pid=2),
    ]
    nodes = {(n.name, n.span.pid, n.span.tid): n for n in stats.span_tree(spans)}
    assert len(nodes) == 6
    assert nodes[("bench.analyzer.plan", 1, 1)].self_ns == 100 - 30 - 10
    assert nodes[("bench.estimators.evaluate_layer", 1, 1)].self_ns == 30 - 10
    assert nodes[("bench.policies.plan", 1, 1)].self_ns == 10
    assert nodes[("bench.serve.encode", 1, 2)].self_ns == 100
    assert nodes[("bench.serve.encode", 2, 1)].parent is None
    layer = nodes[("bench.estimators.evaluate_layer", 1, 1)]
    assert layer.ancestor_attr("model") == "ResNet18"


def test_self_time_across_real_threads() -> None:
    from repro.obs import Tracer

    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work() -> None:
        with tracer.start("bench.outer"):
            barrier.wait(timeout=10)
            with tracer.start("bench.inner"):
                barrier.wait(timeout=10)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    nodes = stats.span_tree(tracer.drain())
    assert sorted(n.name for n in nodes) == ["bench.inner", "bench.inner", "bench.outer", "bench.outer"]
    for node in nodes:
        if node.name == "bench.inner":
            assert node.parent is not None and node.parent.span.tid == node.span.tid
            assert node.self_ns == node.duration_ns
        else:
            inner = [m for m in nodes if m.parent is node]
            assert len(inner) == 1
            assert node.self_ns == node.duration_ns - inner[0].duration_ns


def test_layer_metrics_counts_and_ratios() -> None:
    spans = [
        Span("bench.estimators.evaluate_layer", 0, 10),
        Span("bench.estimators.evaluate_plans", 1, 9, attrs=(("candidates", 7),)),
        Span("bench.estimators.evaluate_layer", 20, 21),
        Span("bench.dram.effective_bandwidth", 30, 40),
        Span("bench.dram.simulate_schedule", 31, 39),
        Span("bench.dram.effective_bandwidth", 50, 51),
        Span("bench.dram.simulate_plan", 60, 80),
        Span("bench.dram.simulate_schedule", 61, 79),
        Span("bench.cache.lookup", 90, 91, attrs=(("hit", True),)),
        Span("bench.cache.lookup", 92, 93, attrs=(("hit", False),)),
        Span("bench.policies.plan", 100, 101, attrs=(("feasible", True),)),
        Span("bench.policies.tiled_plan", 102, 103, attrs=(("feasible", False),)),
    ]
    metrics = stats.layer_metrics(stats.span_tree(spans), client_ms=[1.0, 2.0, 3.0])
    assert set(metrics) == set(stats.LAYER_METRICS) - {"trace_overhead_ratio"}
    assert metrics["estimators.memo_hit_ratio"] == 0.5
    assert metrics["estimators.candidates_count"] == 7
    assert metrics["dram.effective_bandwidth_calls"] == 2
    assert metrics["dram.simulate_schedule_calls"] == 2
    assert metrics["dram.memo_hit_ratio"] == 0.5  # the plan-level simulation is no memo miss
    assert metrics["cache.hit_ratio"] == 0.5
    assert metrics["policies.feasible_ratio"] == 0.5
    assert metrics["serve.request_p99_ms"] == 3.0
    empty = stats.layer_metrics([])
    assert empty["dram.memo_hit_ratio"] == 0.0 and empty["serve.http_overhead_s"] == 0.0


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------


def test_plan_inputs_cover_the_ladders_once() -> None:
    flat = plan_configs("plan-zoo-flat")
    ddr4 = plan_configs("plan-zoo-ddr4")
    assert len(flat) == len({c.id for c in flat}) == 6 * 5 * 2 * 2
    assert len(ddr4) == len({c.id for c in ddr4}) == len(DDR4_MODELS) * 3
    assert {c.model for c in flat} == set(PAPER_MODELS) >= {c.model for c in ddr4} == set(DDR4_MODELS)
    assert all(c.ddr4 and not c.interlayer for c in ddr4) and not any(c.ddr4 for c in flat)


def test_serve_mix_is_deterministic_and_covers_the_key_space() -> None:
    mix = serve_mix(3)
    assert mix == serve_mix(3)
    assert mix != serve_mix(4)
    assert len(mix) == SERVE_REQUESTS
    endpoints = Counter(endpoint for endpoint, _ in mix)
    assert abs(endpoints["plan"] / SERVE_REQUESTS - 0.70) < 0.05
    assert abs(endpoints["explain"] / SERVE_REQUESTS - 0.15) < 0.05
    assert abs(endpoints["simulate"] / SERVE_REQUESTS - 0.15) < 0.05
    keys = {serve_cache_key(endpoint, config) for endpoint, config in mix}
    assert 140 <= len(keys) <= 150
    assert {config for _, config in mix} <= set(serve_configs())
    assert {f"{e} {c.id}" for e, c in mix} <= set(EXPECTED["serve-zoo"])


def test_expected_covers_every_input() -> None:
    for workload in ("plan-zoo-flat", "plan-zoo-ddr4"):
        assert set(EXPECTED[workload]) == {c.id for c in plan_configs(workload)}
    assert len(EXPECTED["serve-zoo"]) == 3 * len(serve_configs())
    assert all(set(entry) == {"miss", "hit"} for entry in EXPECTED["serve-zoo"].values())
    assert set(EXPECTED) == set(WORKLOADS)


def test_benchmark_json_matches_the_harness() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS) == list(run.ROUNDS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == stats.LAYER_METRICS
    assert declared["run_seconds"] == run.DEFAULT_SECONDS


def test_round_counts_depend_only_on_seconds() -> None:
    counts = {w: run.round_count(w, run.DEFAULT_SECONDS) for w in WORKLOADS}
    assert counts == {"plan-zoo-flat": 9, "plan-zoo-ddr4": 4, "serve-zoo": 3}
    assert {run.round_count(w, 1) for w in WORKLOADS} == {1}
    assert run.round_count("serve-zoo", 2 * run.DEFAULT_SECONDS) == 6


def test_run_cap_stops_only_a_slow_run() -> None:
    cap = run.RUN_CAP * 10
    assert run.another_round(0, 1e9, 10)
    assert run.another_round(2, cap * 2 / 3, 10)
    assert not run.another_round(2, cap * 2 / 3 + 0.01, 10)


# ----------------------------------------------------------------------
# Output checking
# ----------------------------------------------------------------------


def _plan_record(workload: str) -> dict:
    return {
        "outputs": [
            {"id": c.id, **EXPECTED[workload][c.id], "verified": True}
            for c in plan_configs(workload)
        ]
    }


def _serve_record(seed: int) -> dict:
    seen, outputs = set(), []
    for endpoint, config in serve_mix(seed):
        key = serve_cache_key(endpoint, config)
        state = "hit" if key in seen else "miss"
        seen.add(key)
        outputs.append([endpoint, config.id, 200, EXPECTED["serve-zoo"][f"{endpoint} {config.id}"][state]])
    return {"outputs": outputs, "failures": []}


def test_matching_outputs_pass() -> None:
    assert run.check_outputs("plan-zoo-flat", _plan_record("plan-zoo-flat"), EXPECTED) == (120, [])
    assert run.check_outputs("serve-zoo", _serve_record(1), EXPECTED) == (SERVE_REQUESTS, [])
    unverified = _plan_record("plan-zoo-ddr4")
    for output in unverified["outputs"]:
        output["verified"] = None
    assert run.check_outputs("plan-zoo-ddr4", unverified, EXPECTED) == (len(DDR4_MODELS) * 3, [])


def test_flipped_expected_digest_raises_ops_failed() -> None:
    flipped = json.loads(json.dumps(EXPECTED))
    first = plan_configs("plan-zoo-ddr4")[0].id
    flipped["plan-zoo-ddr4"][first]["explain"] = "0" * 64
    attempted, failures = run.check_outputs("plan-zoo-ddr4", _plan_record("plan-zoo-ddr4"), flipped)
    assert attempted == len(DDR4_MODELS) * 3 and len(failures) == 1 and first in failures[0]

    endpoint, config = serve_mix(1)[0]
    flipped["serve-zoo"][f"{endpoint} {config.id}"]["miss"] = "0" * 64
    _, failures = run.check_outputs("serve-zoo", _serve_record(1), flipped)
    assert len(failures) == 1 and "(miss)" in failures[0]

    summary = {"workload": "serve-zoo", "metrics": {}, "attempted": SERVE_REQUESTS, "failed": len(failures)}
    result = run.result_line([summary])
    assert result["failed"] == 1 and result["correct"] is False


def test_hit_served_as_miss_is_a_failure() -> None:
    record = _serve_record(2)
    endpoint, config_id, status, _ = record["outputs"][0]
    record["outputs"].insert(1, [endpoint, config_id, status, record["outputs"][0][3]])
    _, failures = run.check_outputs("serve-zoo", record, EXPECTED)
    assert failures == [f"{endpoint} {config_id} (hit): body digest differs"]


def test_non_200_and_unverified_plans_fail() -> None:
    record = _serve_record(1)
    record["outputs"][5][2] = 500
    assert len(run.check_outputs("serve-zoo", record, EXPECTED)[1]) == 1
    plans = _plan_record("plan-zoo-flat")
    plans["outputs"][0]["verified"] = False
    assert len(run.check_outputs("plan-zoo-flat", plans, EXPECTED)[1]) == 1
    del plans["outputs"][1:]
    assert len(run.check_outputs("plan-zoo-flat", plans, EXPECTED)[1]) == 120


def test_yardstick_samples_between_bytecodes_and_splits_wall_time() -> None:
    import time

    from yardstick import Yardstick

    yardstick = Yardstick(time.perf_counter_ns)
    with pytest.raises(ValueError):
        yardstick.mean_ms()
    with yardstick.every(0.005):
        start = yardstick.mark()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
        end = yardstick.mark()
    assert len(yardstick.samples_ns) >= 5
    assert 0 < end[1] - start[1] <= yardstick.total_ns == sum(yardstick.samples_ns)
    assert yardstick.mean_ms() > 0
    # A host on which the job runs 1.5 times slower reports 3 s as 2 s.
    assert stats.at_reference(3.0, 1.5 * stats.REFERENCE_MS) == 2.0
    taken = len(yardstick.samples_ns)
    time.sleep(0.02)
    assert len(yardstick.samples_ns) == taken  # the timer stopped with the block


def test_yardstick_near_an_op_averages_only_the_samples_around_it() -> None:
    from yardstick import Yardstick

    second = 10**9
    yardstick = Yardstick(lambda: 0)
    yardstick.samples_ns = [1_000_000, 3_000_000, 5_000_000]
    yardstick.starts_ns = [0, second, 2 * second]
    yardstick.total_ns = sum(yardstick.samples_ns)
    assert yardstick.near_ms(second, second, near_s=0.5) == 3.0
    assert yardstick.near_ms(0, second, near_s=0) == 2.0
    assert yardstick.near_ms(second + 1, second + 2, near_s=0.5) == 3.0
    assert yardstick.near_ms(5 * second, 6 * second, near_s=0.5) == yardstick.mean_ms() == 3.0


def test_serve_pins_to_an_allowed_cpu() -> None:
    import os

    import worker

    cpu = worker.quietest_cpu(0.01)
    assert cpu is None or cpu in os.sched_getaffinity(0)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "plan-zoo-flat"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no repro sources" in err


# ----------------------------------------------------------------------
# Layer spans
# ----------------------------------------------------------------------


def test_install_rebinds_every_importer_and_uninstall_restores() -> None:
    import layers
    import repro
    from repro.analyzer import algorithm1, delta, planner
    from repro.policies.tiled import TiledFallback

    originals = (planner.select_policy, repro.plan_heterogeneous, TiledFallback.plan)
    installation = layers.install()
    try:
        assert planner.select_policy is delta.select_policy is algorithm1.select_policy
        assert planner.select_policy is not originals[0]
        assert repro.plan_heterogeneous is planner.plan_heterogeneous is not originals[1]
        assert TiledFallback.plan is not originals[2]
    finally:
        installation.uninstall()
    assert (planner.select_policy, repro.plan_heterogeneous, TiledFallback.plan) == originals
    assert delta.select_policy is originals[0]


def test_traced_planning_splits_flat_from_dram_work() -> None:
    import layers
    import repro
    from repro import DEFAULT_DDR4_SPEC, AcceleratorSpec, Objective
    from repro.arch.units import kib
    from repro.estimators.evaluate import clear_evaluation_memo
    from repro.nn.zoo import get_model
    from repro.obs import disable_tracing, enable_tracing

    def traced(spec: AcceleratorSpec) -> dict[str, float]:
        clear_evaluation_memo()
        tracer = enable_tracing()
        installation = layers.install()
        try:
            repro.plan_heterogeneous(get_model("ResNet18"), spec, Objective.ACCESSES)
        finally:
            installation.uninstall()
            disable_tracing()
        nodes = stats.span_tree(tracer.drain())
        assert stats.top_layers(nodes)[0][0] == "ResNet18"
        return stats.layer_metrics(nodes)

    flat = traced(AcceleratorSpec(glb_bytes=kib(1024)))
    ddr4 = traced(AcceleratorSpec(glb_bytes=kib(1024), dram=DEFAULT_DDR4_SPEC))
    assert flat["analyzer.plan_s.ResNet18"] > 0 and ddr4["analyzer.plan_s.ResNet18"] > 0
    assert flat["dram.effective_bandwidth_calls"] == flat["dram.simulate_schedule_calls"] == 0
    assert ddr4["dram.effective_bandwidth_calls"] > 0 and ddr4["dram.simulate_schedule_calls"] > 0
    assert flat["estimators.latency_batch_s"] > 0 and ddr4["estimators.latency_batch_s"] == 0
