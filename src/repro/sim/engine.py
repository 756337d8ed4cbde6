"""Step-level functional simulator for execution plans.

The closed-form estimators (``repro.estimators``) predict traffic and
latency from step-group algebra.  This simulator *executes* a plan: it
expands every step group into individual steps and plays them through a
two-resource discrete-event model —

* a **DMA engine** that owns the off-chip interface (loads and stores are
  serialized on it at the configured bandwidth), and
* a **PE array** computing at the peak MAC rate,

with double buffering (prefetch) deciding whether the DMA may run ahead of
the PE.  Every DRAM transfer is counted (and optionally recorded as a
trace), so the test suite can assert that the estimators' traffic numbers
are *exact* and their latency closed forms agree with the executed
timeline.

Without prefetch the engine enforces strict serialization: a step's load,
compute and store do not overlap.  With prefetch the engine models a
work-conserving off-chip port with an (unbounded) write-back buffer:

* loads chain back to back and have priority, so step *i*'s data is ready
  at the end of the load chain;
* each compute starts once its data is ready and the PE is free;
* each store chains behind its compute and the previous store;
* the port can never finish before its total work
  ``(Σloads + Σstores) / bandwidth`` — write-backs deferred behind loads
  still consume bandwidth, which this conservation bound enforces.

The layer finishes when the PE chain, the store chain and the port-work
bound have all been met.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..arch.spec import AcceleratorSpec
from ..analyzer.plan import ExecutionPlan, LayerAssignment, transformed_schedule
from ..estimators.latency import effective_dram_bandwidth
from ..obs import get_tracer, metrics_registry
from ..policies.base import LayerSchedule


@dataclass(frozen=True)
class Step:
    """One expanded streaming step."""

    ifmap: int
    filters: int
    macs: int
    store: int

    @property
    def load(self) -> int:
        return self.ifmap + self.filters


def expand_schedule(schedule: LayerSchedule, max_steps: int | None = None) -> Iterator[Step]:
    """Expand step groups into individual steps (optionally capped)."""
    emitted = 0
    for group in schedule.groups:
        for _ in range(group.count):
            if max_steps is not None and emitted >= max_steps:
                raise ValueError(
                    f"schedule exceeds max_steps={max_steps}; "
                    f"use a smaller layer or raise the cap"
                )
            yield Step(group.ifmap, group.filters, group.macs, group.store)
            emitted += 1


@dataclass
class TraceEvent:
    """One DRAM transaction in the simulated timeline."""

    time: float  #: completion time in cycles
    kind: str  #: "load_ifmap", "load_filters", "load_resident", "store"
    elems: int


@dataclass
class LayerSimResult:
    """Executed timeline of one layer."""

    name: str
    cycles: float
    dram_load_elems: int
    dram_store_elems: int
    compute_busy_cycles: float
    dma_busy_cycles: float
    steps: int

    @property
    def dram_total_elems(self) -> int:
        return self.dram_load_elems + self.dram_store_elems


def simulate_assignment(
    assignment: LayerAssignment,
    spec: AcceleratorSpec,
    *,
    record_trace: list[TraceEvent] | None = None,
    max_steps: int | None = None,
) -> LayerSimResult:
    """Execute one layer's schedule through the two-resource model."""
    plan = assignment.evaluation.plan
    schedule = transformed_schedule(
        plan.schedule, assignment.receives, assignment.donates
    )
    # Flat bandwidth by default; trace-simulated delivered rate when the
    # spec carries a banked DramSpec (mirrors the closed-form estimator).
    bw = effective_dram_bandwidth(schedule, spec, plan.layer)
    rate = spec.macs_per_cycle
    prefetch = plan.prefetch

    load_t = 0.0  # end of the load chain
    pe_t = 0.0  # time the PE array frees up
    store_t = 0.0  # end of the store chain
    loads = 0
    stores = 0
    compute_busy = 0.0
    n_steps = 0

    def trace(kind: str, elems: int, when: float) -> None:
        if record_trace is not None and elems:
            record_trace.append(TraceEvent(when, kind, elems))

    if schedule.resident_load:
        load_t += schedule.resident_load / bw
        trace("load_resident", schedule.resident_load, load_t)
        pe_t = max(pe_t, load_t)

    for step in expand_schedule(schedule, max_steps):
        n_steps += 1
        loads += step.load
        stores += step.store
        if prefetch:
            if step.ifmap:
                load_t += step.ifmap / bw
                trace("load_ifmap", step.ifmap, load_t)
            if step.filters:
                load_t += step.filters / bw
                trace("load_filters", step.filters, load_t)
            pe_t = max(pe_t, load_t) + step.macs / rate
            compute_busy += step.macs / rate
            if step.store:
                store_t = max(store_t, pe_t) + step.store / bw
                trace("store", step.store, store_t)
        else:
            # Strict serialization: load -> compute -> store on one timeline.
            t = max(load_t, pe_t, store_t)
            if step.ifmap:
                t += step.ifmap / bw
                trace("load_ifmap", step.ifmap, t)
            if step.filters:
                t += step.filters / bw
                trace("load_filters", step.filters, t)
            load_t = t
            t += step.macs / rate
            compute_busy += step.macs / rate
            pe_t = t
            if step.store:
                t += step.store / bw
                trace("store", step.store, t)
            store_t = t

    port_work = (loads + stores + schedule.resident_load) / bw
    total = max(load_t, pe_t, store_t, port_work if prefetch else 0.0)
    result = LayerSimResult(
        name=assignment.layer.name,
        cycles=total,
        dram_load_elems=loads + schedule.resident_load,
        dram_store_elems=stores,
        compute_busy_cycles=compute_busy,
        dma_busy_cycles=port_work,
        steps=n_steps,
    )
    registry = metrics_registry()
    registry.counter("sim_layers_count").add(1)
    registry.counter("sim_steps_count").add(n_steps)
    registry.counter("sim_dram_load_elems").add(result.dram_load_elems)
    registry.counter("sim_dram_store_elems").add(stores)
    return result


@dataclass
class PlanSimResult:
    """Executed timeline of a whole plan (layers run back to back)."""

    layers: list[LayerSimResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(layer.cycles for layer in self.layers)

    @property
    def dram_load_elems(self) -> int:
        return sum(layer.dram_load_elems for layer in self.layers)

    @property
    def dram_store_elems(self) -> int:
        return sum(layer.dram_store_elems for layer in self.layers)

    @property
    def dram_total_elems(self) -> int:
        return self.dram_load_elems + self.dram_store_elems


def simulate_plan(
    plan: ExecutionPlan,
    *,
    record_trace: list[TraceEvent] | None = None,
    max_steps_per_layer: int | None = None,
) -> PlanSimResult:
    """Execute every layer of a plan in order."""
    tracer = get_tracer()
    result = PlanSimResult()
    with tracer.start(
        "simulate_plan", model=plan.model.name, scheme=plan.scheme
    ) as plan_span:
        for assignment in plan.assignments:
            with tracer.start(
                "sim_layer", layer=assignment.layer.name, policy=assignment.label
            ) as layer_span:
                layer_result = simulate_assignment(
                    assignment,
                    plan.spec,
                    record_trace=record_trace,
                    max_steps=max_steps_per_layer,
                )
                layer_span.set_attr("steps_count", layer_result.steps)
                layer_span.set_attr("cycles", layer_result.cycles)
            result.layers.append(layer_result)
        plan_span.set_attr("total_cycles", result.total_cycles)
    return result
