"""Lightweight per-layer estimation models (paper §3.3, Algorithm 1 l.7–9)."""

from .evaluate import (
    PolicyEvaluation,
    estimate_accesses,
    estimate_latency,
    estimate_latency_batch,
    estimate_memory,
    evaluate_layer,
    evaluate_layers,
    evaluate_plans,
)
from .bounds import (
    OptimalityGap,
    TrafficBound,
    layer_bound,
    model_bound,
    model_bound_interlayer,
    optimality_gap,
)
from .latency import LatencyBreakdown, schedule_latency, schedule_latency_batch

__all__ = [
    "PolicyEvaluation",
    "evaluate_layer",
    "evaluate_layers",
    "evaluate_plans",
    "estimate_memory",
    "estimate_accesses",
    "estimate_latency",
    "estimate_latency_batch",
    "LatencyBreakdown",
    "schedule_latency",
    "schedule_latency_batch",
    "TrafficBound",
    "OptimalityGap",
    "layer_bound",
    "model_bound",
    "model_bound_interlayer",
    "optimality_gap",
]
