"""Summary statistics, host-speed scaling and span accounting (pure
functions, no ``repro``).

Spans are any objects with ``name``, ``start_ns``, ``end_ns``, ``pid``,
``tid`` and ``attrs`` (a tuple of key/value pairs), such as
:class:`repro.obs.SpanRecord`.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from workloads import PAPER_MODELS

#: Only the benchmark's own spans take part in self-time accounting; the
#: program's spans are exported to the Chrome trace but never subtracted.
BENCH_PREFIX = "bench."

#: metric -> the span whose summed self time it is.
SELF_TIME_METRICS: dict[str, str] = {
    "policies.plan_s": "bench.policies.plan",
    "policies.tiled_plan_s": "bench.policies.tiled_plan",
    "estimators.evaluate_plans_s": "bench.estimators.evaluate_plans",
    "estimators.latency_batch_s": "bench.estimators.latency_batch",
    "analyzer.select_s": "bench.analyzer.select",
    "analyzer.interlayer_s": "bench.analyzer.interlayer",
    "analyzer.plan_self_s": "bench.analyzer.plan",
    "analyzer.export_s": "bench.analyzer.export",
    "analyzer.explain_s": "bench.analyzer.explain",
    "dram.effective_bandwidth_s": "bench.dram.effective_bandwidth",
    "dram.simulate_schedule_s": "bench.dram.simulate_schedule",
    "dram.simulate_plan_s": "bench.dram.simulate_plan",
    "cache.key_s": "bench.cache.key",
    "cache.lookup_s": "bench.cache.lookup",
    "cache.store_s": "bench.cache.store",
    "serve.execute_s": "bench.serve.execute",
    "serve.encode_s": "bench.serve.encode",
    "scalesim.simulate_s": "bench.scalesim.simulate",
}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_count", "_calls")):
        return "count"
    return "ratio"


#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS: dict[str, str] = {
    name: _unit(name)
    for name in (
        "policies.plan_s",
        "policies.tiled_plan_s",
        "policies.feasible_ratio",
        "estimators.evaluate_plans_s",
        "estimators.latency_batch_s",
        "estimators.candidates_count",
        "estimators.memo_hit_ratio",
        "analyzer.select_s",
        "analyzer.interlayer_s",
        "analyzer.plan_self_s",
        *(f"analyzer.plan_s.{model}" for model in PAPER_MODELS),
        "analyzer.export_s",
        "analyzer.explain_s",
        "dram.effective_bandwidth_s",
        "dram.effective_bandwidth_calls",
        "dram.simulate_schedule_s",
        "dram.simulate_schedule_calls",
        "dram.memo_hit_ratio",
        "dram.simulate_plan_s",
        "cache.key_s",
        "cache.lookup_s",
        "cache.hit_ratio",
        "cache.store_s",
        "cache.stores_count",
        "serve.execute_s",
        "serve.encode_s",
        "serve.http_overhead_s",
        "serve.request_p99_ms",
        "runtime.gc_gen2_count",
        "runtime.gc_pause_s",
        "scalesim.simulate_s",
        "trace_overhead_ratio",
    )
}


#: The reference host: the yardstick job (``yardstick.py``) takes
#: ``REFERENCE_MS`` there, and a Python start that imports NumPy
#: (``run.REFERENCE_START``) takes ``REFERENCE_START_S``.
REFERENCE_MS = 1.0
REFERENCE_START_S = 0.2


def at_reference(value: float, measured: float, reference: float = REFERENCE_MS) -> float:
    """A time taken while a reference job took ``measured``, scaled to the
    reference host, on which that job takes ``reference``."""
    return value * reference / measured


def nearest_rank(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile: the smallest value with ``quantile`` of the
    sample at or below it.  Raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


@dataclass
class Node:
    """One benchmark span placed in its thread's nesting tree."""

    span: Any
    parent: "Node | None"
    self_ns: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return str(self.span.name)

    @property
    def duration_ns(self) -> int:
        return int(self.span.end_ns - self.span.start_ns)

    def ancestor_attr(self, key: str) -> Any:
        """The nearest enclosing span's value of attribute ``key``."""
        node = self.parent
        while node is not None:
            if key in node.attrs:
                return node.attrs[key]
            node = node.parent
        return None

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


def span_tree(spans: Iterable[Any], prefix: str = BENCH_PREFIX) -> list[Node]:
    """Nest the ``prefix`` spans per (pid, tid) and compute self times.

    A span's self time is its duration minus the durations of its direct
    children; only spans of the same thread nest, so work on another
    thread or process is never subtracted.
    """
    by_thread: dict[tuple[int, int], list[Any]] = defaultdict(list)
    for span in spans:
        if span.name.startswith(prefix):
            by_thread[(span.pid, span.tid)].append(span)
    nodes: list[Node] = []
    for thread in sorted(by_thread):
        stack: list[Node] = []
        for span in sorted(by_thread[thread], key=lambda s: (s.start_ns, -s.end_ns)):
            while stack and span.start_ns >= stack[-1].span.end_ns:
                stack.pop()
            parent = stack[-1] if stack else None
            node = Node(span, parent, span.end_ns - span.start_ns, dict(span.attrs))
            if parent is not None:
                parent.self_ns -= node.duration_ns
            stack.append(node)
            nodes.append(node)
    return nodes


def layer_metrics(
    nodes: Sequence[Node],
    *,
    client_ms: Sequence[float] = (),
    gc_gen2_count: int = 0,
    gc_pause_s: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead_ratio`` for one round.

    ``client_ms`` are the client-side request latencies of a serve round.
    ``analyzer.plan_s.<Model>`` is inclusive: its self time is only glue.
    """
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for node in nodes:
        self_s[node.name] += node.self_ns / 1e9
        total_s[node.name] += node.duration_ns / 1e9
        calls[node.name] += 1

    out = {metric: self_s[span] for metric, span in SELF_TIME_METRICS.items()}

    plan_calls = calls["bench.policies.plan"] + calls["bench.policies.tiled_plan"]
    feasible = sum(
        1
        for node in nodes
        if node.name in ("bench.policies.plan", "bench.policies.tiled_plan")
        and node.attrs.get("feasible")
    )
    out["policies.feasible_ratio"] = ratio(feasible, plan_calls)
    out["estimators.candidates_count"] = float(
        sum(
            node.attrs.get("candidates", 0)
            for node in nodes
            if node.name == "bench.estimators.evaluate_plans"
        )
    )
    layer_calls = calls["bench.estimators.evaluate_layer"]
    out["estimators.memo_hit_ratio"] = (
        1.0 - ratio(calls["bench.estimators.evaluate_plans"], layer_calls)
        if layer_calls
        else 0.0
    )

    plan_by_model: dict[str, float] = defaultdict(float)
    for node in nodes:
        if node.name == "bench.analyzer.plan" and not node.has_ancestor(node.name):
            plan_by_model[str(node.attrs.get("model"))] += node.duration_ns / 1e9
    for model in PAPER_MODELS:
        out[f"analyzer.plan_s.{model}"] = plan_by_model[model]

    bandwidth_calls = calls["bench.dram.effective_bandwidth"]
    simulated_for_bandwidth = sum(
        1
        for node in nodes
        if node.name == "bench.dram.simulate_schedule"
        and node.parent is not None
        and node.parent.name == "bench.dram.effective_bandwidth"
    )
    out["dram.effective_bandwidth_calls"] = float(bandwidth_calls)
    out["dram.simulate_schedule_calls"] = float(calls["bench.dram.simulate_schedule"])
    out["dram.memo_hit_ratio"] = (
        1.0 - ratio(simulated_for_bandwidth, bandwidth_calls) if bandwidth_calls else 0.0
    )

    lookups = [node for node in nodes if node.name == "bench.cache.lookup"]
    out["cache.hit_ratio"] = ratio(
        sum(1 for node in lookups if node.attrs.get("hit")), len(lookups)
    )
    out["cache.stores_count"] = float(calls["bench.cache.store"])

    if client_ms:
        client_s = sum(client_ms) / 1e3
        out["serve.http_overhead_s"] = (
            client_s - total_s["bench.serve.execute"] - total_s["bench.serve.encode"]
        )
        out["serve.request_p99_ms"] = nearest_rank(client_ms, 0.99)
    else:
        out["serve.http_overhead_s"] = 0.0
        out["serve.request_p99_ms"] = 0.0
    out["runtime.gc_gen2_count"] = float(gc_gen2_count)
    out["runtime.gc_pause_s"] = gc_pause_s
    return out


def top_layers(nodes: Sequence[Node], count: int = 10) -> list[tuple[str, str, float]]:
    """The ``count`` costliest (model, layer) pairs by ``evaluate_layer`` time."""
    seconds: dict[tuple[str, str], float] = defaultdict(float)
    for node in nodes:
        if node.name == "bench.estimators.evaluate_layer":
            model = str(node.ancestor_attr("model"))
            seconds[(model, str(node.attrs.get("layer")))] += node.duration_ns / 1e9
    ranked = sorted(seconds.items(), key=lambda item: (-item[1], item[0]))
    return [(model, layer, value) for (model, layer), value in ranked[:count]]
