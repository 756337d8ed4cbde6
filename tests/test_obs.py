"""Telemetry subsystem (:mod:`repro.obs`): tracer, metrics, audit, export.

Covers the tracer's span lifecycle and fork/worker semantics, the
metrics registry's unit-suffix contract and snapshot merging, the
planner decision audit trail, the Chrome-trace / ``repro-telemetry/1``
exporters, the monkeypatchable clock, and the bit-identical-results
parity guarantee (tracing on vs off).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analyzer import Objective, plan_heterogeneous
from repro.arch import AcceleratorSpec, kib
from repro.nn.zoo import get_model
from repro.obs import (
    ENV_TRACE,
    MetricsRegistry,
    NullTracer,
    SpanRecord,
    Tracer,
    clock,
    configure_worker,
    diff_snapshots,
    disable_tracing,
    enable_tracing,
    export,
    get_tracer,
    has_unit_suffix,
    metrics_registry,
    set_tracer,
)
from repro.obs.audit import CandidateRecord, LayerDecision, TrailBuilder
from repro.report.diagnostics import TELEMETRY_SCHEMA_ID, validate_telemetry_payload


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """Each test starts and ends with the no-op tracer and empty metrics."""
    monkeypatch.delenv(ENV_TRACE, raising=False)
    set_tracer(NullTracer())
    metrics_registry().reset()
    yield
    disable_tracing()
    metrics_registry().reset()


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------


def test_clock_is_monotonic_and_elapsed_is_seconds():
    start = clock.monotonic_ns()
    assert clock.monotonic_ns() >= start
    assert clock.elapsed_seconds(start) >= 0.0


def test_clock_is_monkeypatchable(monkeypatch):
    monkeypatch.setattr(clock, "monotonic_ns", lambda: 5_000_000_000)
    assert clock.elapsed_seconds(2_000_000_000) == 3.0


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def test_default_tracer_is_noop():
    tracer = get_tracer()
    assert not tracer.enabled
    with tracer.start("anything", key="value") as span:
        span.set_attr("more", 1)
    assert tracer.drain() == ()


def test_tracer_records_nested_spans_with_depth_and_attrs():
    tracer = Tracer()
    with tracer.start("outer", model="m") as outer:
        with tracer.start("inner") as inner:
            inner.set_attr("steps_count", 3)
        outer.set_attr("done", True)
    inner_rec, outer_rec = tracer.drain()  # inner exits (records) first
    assert inner_rec.name == "inner" and inner_rec.depth == 1
    assert outer_rec.name == "outer" and outer_rec.depth == 0
    assert inner_rec.attr_dict() == {"steps_count": 3}
    assert outer_rec.attr_dict() == {"done": True, "model": "m"}
    assert inner_rec.duration_ns >= 0
    assert outer_rec.start_ns <= inner_rec.start_ns
    assert tracer.drain() == ()  # drain moves, never duplicates


def test_bare_start_drops_the_span_but_keeps_the_depth():
    """A span never entered records nothing; depth is taken in __enter__."""
    tracer = Tracer()
    tracer.start("dropped")
    with tracer.start("next"):
        pass
    (record,) = tracer.drain()
    assert record.name == "next" and record.depth == 0


def test_span_name_is_positional_only():
    tracer = Tracer()
    with tracer.start("artifact", name="table2"):
        pass
    (record,) = tracer.drain()
    assert record.name == "artifact"
    assert record.attr_dict() == {"name": "table2"}


def test_span_records_error_attribute_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.start("risky"):
            raise RuntimeError("boom")
    (record,) = tracer.drain()
    assert record.attr_dict()["error"] == "RuntimeError"


def test_ingest_merges_external_records():
    tracer = Tracer()
    foreign = SpanRecord(name="worker_span", start_ns=1, end_ns=2, pid=99, tid=1, depth=0)
    tracer.ingest([foreign])
    assert tracer.drain() == (foreign,)


def test_enable_disable_tracing_toggle_env_and_tracer(monkeypatch):
    import os

    tracer = enable_tracing()
    assert get_tracer() is tracer and tracer.enabled
    assert os.environ.get(ENV_TRACE) == "1"
    disable_tracing()
    assert not get_tracer().enabled
    assert ENV_TRACE not in os.environ


def test_configure_worker_follows_env_flag(monkeypatch):
    monkeypatch.setenv(ENV_TRACE, "1")
    configure_worker()
    assert get_tracer().enabled
    monkeypatch.delenv(ENV_TRACE)
    configure_worker()
    assert not get_tracer().enabled


def test_configure_worker_resets_inherited_metrics():
    metrics_registry().counter("inherited_count").add(5)
    configure_worker()
    assert metrics_registry().snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_metric_names_require_unit_suffix():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("cache_hits")
    with pytest.raises(ValueError):
        registry.gauge("depth")
    with pytest.raises(ValueError):
        registry.histogram("latency")
    assert has_unit_suffix("cache_hits_count")
    assert not has_unit_suffix("cache_hits")


def test_unsuffixed_metric_name_raises_with_tracing_off():
    previous = set_tracer(NullTracer())
    try:
        with pytest.raises(ValueError):
            metrics_registry().counter("cache_hits").add(1)
    finally:
        set_tracer(previous)


def test_counter_gauge_histogram_roundtrip():
    registry = MetricsRegistry()
    registry.counter("hits_count").add(2)
    registry.counter("hits_count").add(1)  # create-or-get, same instrument
    registry.gauge("fill_ratio").set(0.5)
    registry.histogram("wait_seconds").observe(1.0)
    registry.histogram("wait_seconds").observe(3.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"hits_count": 3.0}
    assert snap["gauges"] == {"fill_ratio": 0.5}
    assert snap["histograms"] == {
        "wait_seconds": {"count": 2.0, "sum": 4.0, "min": 1.0, "max": 3.0}
    }


def test_counter_rejects_negative_amounts():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("hits_count").add(-1)


def test_merge_accumulates_counters_and_pools_histograms():
    parent, worker = MetricsRegistry(), MetricsRegistry()
    parent.counter("hits_count").add(1)
    worker.counter("hits_count").add(2)
    worker.histogram("wait_seconds").observe(5.0)
    parent.histogram("wait_seconds").observe(1.0)
    parent.merge(worker.snapshot())
    snap = parent.snapshot()
    assert snap["counters"] == {"hits_count": 3.0}
    assert snap["histograms"]["wait_seconds"]["count"] == 2.0
    assert snap["histograms"]["wait_seconds"]["max"] == 5.0


def test_diff_snapshots_subtracts_counters_and_drops_zero_deltas():
    registry = MetricsRegistry()
    registry.counter("hits_count").add(2)
    registry.counter("static_count").add(1)
    before = registry.snapshot()
    registry.counter("hits_count").add(3)
    delta = diff_snapshots(before, registry.snapshot())
    assert delta["counters"] == {"hits_count": 3.0}  # zero-delta dropped


# ----------------------------------------------------------------------
# Decision audit trail
# ----------------------------------------------------------------------


def _row(label, *, chosen=False, feasible=True, reason="r"):
    """One trail row in ``CandidateRecord`` field order."""
    return (
        label,
        label.replace("+p", ""),
        label.endswith("+p"),
        feasible,
        chosen,
        reason,
        100 if feasible else None,
        200 if feasible else None,
        300.0 if feasible else None,
    )


def test_candidate_status_values():
    assert CandidateRecord(*_row("p1", chosen=True)).status == "chosen"
    assert CandidateRecord(*_row("p2")).status == "rejected"
    assert CandidateRecord(*_row("p3", feasible=False)).status == "infeasible"


def test_layer_decision_views_follow_rows():
    decision = LayerDecision(
        index=0, layer="conv1", rows=(_row("p1"), _row("p2+p", chosen=True))
    )
    assert decision.candidates == tuple(CandidateRecord(*r) for r in decision.rows)
    assert decision.chosen_row == _row("p2+p", chosen=True)
    assert decision.chosen == CandidateRecord(*_row("p2+p", chosen=True))
    assert decision.rejected == (CandidateRecord(*_row("p1")),)


def test_trail_builder_rechoose_flips_winner_with_reason():
    builder = TrailBuilder(scheme="het", objective="accesses", glb_bytes=65536)
    builder.add_layer(0, "conv1", [_row("p1", chosen=True), _row("p2+p")])
    builder.rechoose(0, "p2+p", "selected by inter-layer DP")
    builder.note("inter-layer pass: 1 ofmap donation(s) applied")
    trail = builder.build()
    (decision,) = trail.layers
    old, new = decision.rows
    assert new == _row("p2+p", chosen=True, reason="selected by inter-layer DP")
    assert old[:4] == _row("p1")[:4] and old[6:] == _row("p1")[6:]
    assert not old[4] and "overridden by inter-layer DP" in old[5]
    assert trail.notes == ("inter-layer pass: 1 ofmap donation(s) applied",)


def test_trail_payload_is_json_safe():
    builder = TrailBuilder(scheme="het", objective="accesses", glb_bytes=65536)
    builder.add_layer(0, "conv1", [_row("p1", chosen=True), _row("p4", feasible=False)])
    payload = builder.build().to_payload()
    assert json.loads(json.dumps(payload)) == payload
    statuses = [c["status"] for c in payload["layers"][0]["candidates"]]
    assert statuses == ["chosen", "infeasible"]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _spans():
    return [
        SpanRecord(name="b", start_ns=2_000, end_ns=5_000, pid=2, tid=1, depth=0),
        SpanRecord(
            name="a",
            start_ns=1_000,
            end_ns=4_000,
            pid=1,
            tid=7,
            depth=0,
            attrs=(("layer", "conv1"),),
        ),
    ]


def test_chrome_trace_events_shape_and_normalization():
    events = export.chrome_trace_events(_spans())
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["pid"] for e in meta} == {1, 2}  # one process_name rail per pid
    assert all({"name", "ph", "ts", "pid", "tid", "args"} <= set(e) for e in events)
    first, second = complete  # sorted by (pid, tid, start)
    assert first["name"] == "a" and second["name"] == "b"
    assert first["ts"] == 0.0  # earliest span normalized to the origin
    assert second["ts"] == 1.0 and second["dur"] == 3.0  # microseconds
    assert first["args"] == {"layer": "conv1"}


def test_telemetry_payload_schema_id_matches_diagnostics_literal():
    """The validator's literal and the exporter's constant must agree."""
    assert export.TELEMETRY_SCHEMA == TELEMETRY_SCHEMA_ID


def test_telemetry_payload_validates_and_roundtrips(tmp_path):
    registry = MetricsRegistry()
    registry.counter("hits_count").add(1)
    registry.histogram("wait_seconds").observe(0.5)
    payload = export.telemetry_payload(
        _spans(), registry.snapshot(), meta={"tool": "test"}
    )
    assert validate_telemetry_payload(payload) == []
    path = export.write_trace(tmp_path / "sub" / "trace.json", payload)
    assert json.loads(path.read_text()) == json.loads(json.dumps(payload))


def test_validator_rejects_malformed_payloads():
    assert validate_telemetry_payload([]) == ["payload is not an object"]
    problems = validate_telemetry_payload(
        {
            "schema": "nope/9",
            "displayTimeUnit": "ms",
            "meta": {},
            "traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1, "args": {}}],
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }
    )
    assert any("schema" in p for p in problems)
    assert any(".dur" in p for p in problems)  # X events need a duration
    assert validate_telemetry_payload(
        {
            "schema": TELEMETRY_SCHEMA_ID,
            "displayTimeUnit": "ms",
            "meta": {},
            "traceEvents": [],
            "metrics": {"counters": {"bad": "NaN-ish"}, "gauges": {}, "histograms": {}},
        }
    ) == ["metrics.counters must map names to numbers"]


# ----------------------------------------------------------------------
# Planner integration: audit always on, tracing changes nothing
# ----------------------------------------------------------------------


def test_plans_are_bit_identical_with_tracing_on_and_off():
    model = get_model("AlexNet")
    spec = AcceleratorSpec(glb_bytes=kib(64))
    plan_off = plan_heterogeneous(model, spec, Objective.ACCESSES)
    tracer = enable_tracing()
    plan_on = plan_heterogeneous(model, spec, Objective.ACCESSES)
    spans = tracer.drain()
    disable_tracing()
    assert plan_off == plan_on  # results identical (audit excluded from compare)
    assert plan_off.audit is not None and plan_on.audit is not None
    assert plan_off.audit.to_payload() == plan_on.audit.to_payload()
    names = {s.name for s in spans}
    assert "plan_heterogeneous" in names and "plan_layer" in names


def test_plan_audit_has_one_winner_and_reasoned_rejections_per_layer():
    plan = plan_heterogeneous(
        get_model("AlexNet"), AcceleratorSpec(glb_bytes=kib(64)), Objective.ACCESSES
    )
    trail = plan.explain()
    assert len(trail.layers) == len(plan.assignments)
    for decision, assignment in zip(trail.layers, plan.assignments):
        assert decision.chosen is not None
        assert decision.chosen.label == assignment.label
        assert all(c.reason for c in decision.candidates)
    assert any(c.status == "rejected" for d in trail.layers for c in d.candidates)


def test_explain_synthesizes_trail_when_audit_missing():
    plan = plan_heterogeneous(
        get_model("AlexNet"), AcceleratorSpec(glb_bytes=kib(64)), Objective.ACCESSES
    )
    stripped = dataclasses.replace(plan, audit=None)
    trail = stripped.explain()
    assert len(trail.layers) == len(plan.assignments)
    assert any("synthesized" in note for note in trail.notes)
    for decision in trail.layers:
        assert decision.chosen is not None


# ----------------------------------------------------------------------
# Engine integration: worker telemetry merges; counters match the cache
# ----------------------------------------------------------------------


def test_warm_parallel_trace_counter_matches_cache_hits(tmp_path, monkeypatch):
    from repro.experiments import common
    from repro.experiments.engine import run_experiments

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_in_process_caches()  # warm memos would leave the disk cache empty
    run_experiments(["dram-sweep"], jobs=1)  # prime the persistent cache
    common.clear_in_process_caches()  # forked workers would inherit the memos
    metrics_registry().reset()
    enable_tracing()
    try:
        report = run_experiments(["dram-sweep"], jobs=2)
    finally:
        disable_tracing()
    payload = report.telemetry_payload()
    assert validate_telemetry_payload(payload) == []
    hits = payload["metrics"]["counters"].get("plan_cache_hits_count", 0.0)
    assert report.cache_hits > 0
    assert hits == float(report.cache_hits)
    events = payload["traceEvents"]
    # The artifact ran in a pool worker, and its spans merged into the report.
    artifact_pids = {e["pid"] for e in events if e["name"] == "artifact"}
    assert artifact_pids and os.getpid() not in artifact_pids
    trace_path = report.write_trace(tmp_path / "trace.json")
    assert validate_telemetry_payload(json.loads(trace_path.read_text())) == []
    assert "plan_cache_hits_count" in report.metrics_table().render()
