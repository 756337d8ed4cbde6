"""Off-chip communication lower bounds (extension).

The paper's related work cites Chen et al., "Communication lower bound in
convolution accelerators" (HPCA 2020), which bounds the DRAM traffic any
schedule needs given an on-chip buffer of ``S`` elements.  This module
implements two bounds and an experiment-facing helper that measures how
close the heterogeneous plans get:

* the **compulsory bound** — every ifmap/filter element must enter and
  every ofmap element must leave at least once;
* a **red-blue pebbling bound** for the convolution MAC grid — a schedule
  segment that performs ``W`` MACs with at most ``2S`` operands resident
  can touch at most ``O(S^2)`` distinct MACs (each MAC needs an
  (ifmap, filter) pair; with ``a`` ifmap and ``b`` filter operands at
  most ``a·b ≤ S²`` pairs exist), so segments of ``S`` transfers each
  perform at most ``c·S²`` useful MACs and

      traffic ≥ MACs / (c·S)   with c a small constant (we use c = 1,
      which is safe: a·b ≤ (2S/2)² = S² pairs per segment of S loads
      plus S resident).

The pebbling bound matters only when the buffer is small relative to the
reuse (`MACs/S` exceeding compulsory); for the paper's configurations the
compulsory term usually dominates — which is itself the interesting
finding: the heterogeneous scheme sits essentially *on* the lower bound
(see the ``bounds`` experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..arch.spec import AcceleratorSpec
from ..nn.layer import LayerSpec
from ..nn.model import Model
from ..policies.base import Policy

if TYPE_CHECKING:  # imported lazily to avoid an analyzer<->estimators cycle
    from ..analyzer.plan import ExecutionPlan


@dataclass(frozen=True)
class TrafficBound:
    """Lower bound on one layer's off-chip traffic, in elements."""

    compulsory: int
    pebbling: int

    @property
    def combined(self) -> int:
        return max(self.compulsory, self.pebbling)


def layer_bound(layer: LayerSpec, glb_elems: int) -> TrafficBound:
    """Lower-bound one layer's off-chip traffic for a GLB of ``glb_elems``."""
    if glb_elems <= 0:
        raise ValueError("glb_elems must be positive")
    compulsory = (
        Policy.ifmap_pass_elems(layer) + layer.filter_elems + layer.ofmap_elems
    )
    pebbling = -(-layer.macs // glb_elems)  # ceil(MACs / S)
    return TrafficBound(compulsory=compulsory, pebbling=pebbling)


def model_bound(model: Model, spec: AcceleratorSpec) -> int:
    """Lower bound on a model's layer-by-layer off-chip traffic, in bytes.

    Layer-by-layer execution (the paper's mode) cannot beat the sum of
    per-layer bounds; inter-layer reuse can beat the *compulsory* part by
    eliding intermediate tensors, so this bound applies to plans without
    inter-layer reuse (and with it, to a weaker variant that removes the
    donated ofmap/ifmap terms — see :func:`model_bound_interlayer`).
    """
    total = sum(layer_bound(layer, spec.glb_elems).combined for layer in model.layers)
    return total * spec.bytes_per_elem


def model_bound_interlayer(model: Model, spec: AcceleratorSpec) -> int:
    """Lower bound when intermediate tensors may stay on-chip, in bytes.

    Optimistically assumes every producer→consumer pair elides both the
    ofmap write and the (padded) ifmap read; non-chain tensors still move.
    """
    total = 0
    for i, layer in enumerate(model.layers):
        bound = layer_bound(layer, spec.glb_elems)
        compulsory = bound.compulsory
        if i > 0 and model.feeds_next(i - 1):
            compulsory -= Policy.ifmap_pass_elems(layer)
        if i < len(model.layers) - 1 and model.feeds_next(i):
            compulsory -= layer.ofmap_elems
        total += max(compulsory, bound.pebbling)
    return total * spec.bytes_per_elem


@dataclass(frozen=True)
class OptimalityGap:
    """How far a plan's traffic sits above the lower bound."""

    plan_bytes: int
    bound_bytes: int

    @property
    def ratio(self) -> float:
        return self.plan_bytes / self.bound_bytes if self.bound_bytes else float("inf")

    @property
    def gap_pct(self) -> float:
        return 100.0 * (self.ratio - 1.0)


def optimality_gap(plan: "ExecutionPlan", *, interlayer: bool = False) -> OptimalityGap:
    """Measure a plan against the applicable lower bound."""
    bound = (
        model_bound_interlayer(plan.model, plan.spec)
        if interlayer
        else model_bound(plan.model, plan.spec)
    )
    return OptimalityGap(plan_bytes=plan.total_accesses_bytes, bound_bytes=bound)
