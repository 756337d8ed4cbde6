"""Latency estimation from a policy's streaming schedule.

The paper estimates latency "based on the number of operations, bandwidth
and tile sizes" (§3.3).  We make that concrete with a two-resource model:

* the **DMA port** moves data at the accelerator's off-chip bandwidth;
* the **PE array** computes at the peak MAC rate derived from
  ``ops_per_cycle`` (one MAC = two ops).

Without prefetching every step serializes its load, compute and store.
With prefetching (the Eq. (2) double-buffered variants) the port is
work-conserving with a write-back buffer: loads chain with priority, each
compute starts when its data is ready and the PE is free, stores chain
behind their computes, and the layer cannot finish before the port's
total work ``(Σloads + Σstores)/bandwidth``.

All three chains are max-plus recurrences; because schedules are stored
as *uniform step groups* the recurrences become periodic within a few
steps of each group, so ``schedule_latency`` evaluates the exact
event-model timeline in O(groups).  The step-level simulator in
:mod:`repro.sim` replays it step by step, and the test suite asserts they
agree to floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from ..arch.spec import AcceleratorSpec
from ..dram.trace import dram_effective_bandwidths
from ..nn.layer import LayerSpec
from ..policies.base import LayerSchedule, StepGroup

#: Recurrence state: (load-chain end, PE free time, store-chain end).
_State = tuple[float, float, float]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Cycle accounting of one layer under one policy."""

    total_cycles: float
    compute_cycles: float
    dma_cycles: float

    def __post_init__(self) -> None:
        if self.total_cycles < 0 or self.compute_cycles < 0 or self.dma_cycles < 0:
            raise ValueError("cycle counts must be non-negative")


def _advance_group(
    state: _State, group: StepGroup, bw: float, rate: float, prefetch: bool
) -> _State:
    """Advance the state across ``group.count`` identical steps, exactly.

    Within a uniform group the three chains obey feed-forward max-plus
    recurrences whose solutions are maxima of linear ramps, so the state
    after ``n`` steps has a closed form:

    * ``L_n = L_0 + n·l`` — loads chain unconditionally;
    * ``P_n = max(P_0 + n·c,  L_0 + n·l + c,  L_0 + l + n·c)`` — the PE is
      delayed either never, by the last load, or by the first load;
    * ``S_n`` — the store chain is the same construction over each of the
      PE ramps, with the binding compute either the last one (``k = n``)
      or the first one (``k = 1``); interior maxima of a linear function
      in ``k`` are dominated by the endpoints.

    The serial (no-prefetch) recurrence fully synchronizes every step, so
    it telescopes to a single linear ramp.
    """
    load = group.load / bw
    compute = group.macs / rate
    store = group.store / bw
    n = group.count
    load_t, pe_t, store_t = state

    if not prefetch:
        start = max(load_t, pe_t, store_t)
        end = start + n * (load + compute + store)
        return (end - compute - store, end - store, end)

    l_n = load_t + n * load
    p_n = max(
        pe_t + n * compute,
        load_t + n * load + compute,
        load_t + load + n * compute,
    )
    if store == 0:
        # The engine leaves the store chain untouched for store-less steps.
        return (l_n, p_n, store_t)
    s_n = max(
        store_t + n * store,
        pe_t + compute + n * store,
        pe_t + n * compute + store,
        load_t + load + compute + n * store,
        load_t + n * load + compute + store,
        load_t + load + n * compute + store,
    )
    return (l_n, p_n, s_n)


def effective_dram_bandwidth(
    schedule: LayerSchedule, spec: AcceleratorSpec, layer: LayerSpec | None
) -> float:
    """Off-chip bandwidth the schedule actually sees, in elements/cycle.

    The flat constant ``spec.dram_bandwidth_elems_per_cycle`` unless the
    spec carries a banked :class:`~repro.dram.DramSpec` *and* the layer is
    known, in which case the schedule's address stream is trace-simulated
    and the delivered rate (which row-buffer conflicts can push well below
    the flat peak) is used instead.
    """
    if layer is None:
        return spec.dram_bandwidth_elems_per_cycle
    return effective_dram_bandwidths([(schedule, layer)], spec)[0]


def effective_dram_bandwidths(
    items: Sequence[tuple[LayerSchedule, LayerSpec]], spec: AcceleratorSpec
) -> list[float]:
    """:func:`effective_dram_bandwidth` of each (schedule, layer), with every
    trace simulation the DRAM memo misses replayed in one batch."""
    flat = spec.dram_bandwidth_elems_per_cycle
    if spec.dram is None:
        return [flat] * len(items)
    return dram_effective_bandwidths(items, spec.dram, spec.bytes_per_elem, flat)


def schedule_latency(
    schedule: LayerSchedule,
    spec: AcceleratorSpec,
    prefetch: bool,
    layer: LayerSpec | None = None,
) -> LatencyBreakdown:
    """Exact two-resource latency of one layer's streaming schedule.

    When ``spec.dram`` is set and ``layer`` is given, the DMA port runs at
    the trace-simulated effective bandwidth instead of the flat constant;
    otherwise behaviour is bit-identical to the flat model.
    """
    bw = effective_dram_bandwidth(schedule, spec, layer)
    rate = spec.macs_per_cycle
    compute = schedule.total_macs / rate
    dma = (schedule.total_load + schedule.total_store) / bw

    total = _scalar_total(schedule, bw, rate, prefetch)
    if prefetch:
        # Port-work conservation: deferred write-backs still use bandwidth.
        total = max(total, dma)
    return LatencyBreakdown(
        total_cycles=total, compute_cycles=compute, dma_cycles=dma
    )


def _scalar_total(
    schedule: LayerSchedule, bw: float, rate: float, prefetch: bool
) -> float:
    """Final ``max(state)`` of one schedule's recurrence (scalar loop)."""
    load_t = schedule.resident_load / bw
    state: _State = (load_t, load_t, 0.0)
    for group in schedule.groups:
        state = _advance_group(state, group, bw, rate, prefetch)
    return max(state)


#: Schedules longer than this stay on the per-group scalar recurrence even
#: inside the batch API: the group axis is sequential (max-plus chain), so
#: a single long-tail schedule would otherwise stretch the whole batch's
#: padded group axis.  Either route is bit-identical; this is speed only.
_BATCH_GROUP_LIMIT = 16


def _batch_totals(
    schedules: Sequence[LayerSchedule],
    bw: NDArray[np.float64],
    rate: float,
    prefetch: bool,
) -> NDArray[np.float64]:
    """Final ``max(state)`` of every schedule's recurrence, vectorized.

    One group slot per recurrence step, advanced for all schedules at once;
    shorter schedules are padded with all-zero groups, which are exact
    no-ops for the final maximum:

    * serial — a zero group sets the state to ``(m, m, m)`` with
      ``m = max(state)``, preserving the maximum;
    * prefetch — a zero group leaves the load chain (``n·l = 0``) and the
      store chain (``store == 0`` keeps ``store_t``) untouched and can only
      lift ``pe_t`` to ``load_t``, which the maximum already contains.

    ``bw`` holds each schedule's own bandwidth.  Every arithmetic
    expression mirrors :func:`_advance_group` operand for operand, so
    float64 results are bit-identical to the scalar path.
    """
    count_rows = len(schedules)
    max_groups = max((len(s.groups) for s in schedules), default=0)
    n = np.zeros((count_rows, max_groups), dtype=np.int64)
    load_e = np.zeros((count_rows, max_groups), dtype=np.int64)
    macs_e = np.zeros((count_rows, max_groups), dtype=np.int64)
    store_e = np.zeros((count_rows, max_groups), dtype=np.int64)
    for row, schedule in enumerate(schedules):
        for col, group in enumerate(schedule.groups):
            n[row, col] = group.count
            load_e[row, col] = group.load
            macs_e[row, col] = group.macs
            store_e[row, col] = group.store

    load_t = np.array([s.resident_load for s in schedules], dtype=np.float64) / bw
    pe_t = load_t.copy()
    store_t = np.zeros(count_rows, dtype=np.float64)
    for col in range(max_groups):
        load = load_e[:, col] / bw
        compute = macs_e[:, col] / rate
        store = store_e[:, col] / bw
        steps = n[:, col]
        if not prefetch:
            start = np.maximum(np.maximum(load_t, pe_t), store_t)
            end = start + steps * (load + compute + store)
            load_t = end - compute - store
            pe_t = end - store
            store_t = end
        else:
            l_n = load_t + steps * load
            p_n = np.maximum(
                np.maximum(
                    pe_t + steps * compute,
                    load_t + steps * load + compute,
                ),
                load_t + load + steps * compute,
            )
            s_n = np.maximum.reduce(
                [
                    store_t + steps * store,
                    pe_t + compute + steps * store,
                    pe_t + steps * compute + store,
                    load_t + load + compute + steps * store,
                    load_t + steps * load + compute + store,
                    load_t + load + steps * compute + store,
                ]
            )
            store_t = np.where(store_e[:, col] == 0, store_t, s_n)
            load_t = l_n
            pe_t = p_n
    return np.maximum(np.maximum(load_t, pe_t), store_t)


def schedule_latency_batch(
    schedules: Sequence[LayerSchedule],
    spec: AcceleratorSpec,
    prefetch_flags: Sequence[bool],
    bandwidths: Sequence[float],
) -> list[LatencyBreakdown]:
    """Batch :func:`schedule_latency` over a layer's whole candidate grid.

    Evaluates every schedule's max-plus recurrence as NumPy arrays across
    candidates (the prefetch and serial recurrences differ, so candidates
    split into two sub-batches by flag) and is **bit-identical** to calling
    :func:`schedule_latency` per candidate — the parity suite asserts it.

    ``bandwidths`` gives each candidate's off-chip bandwidth in
    elements/cycle, as :func:`effective_dram_bandwidth` returns it: the
    flat constant, or under a banked ``spec.dram`` the candidate's own
    trace-simulated rate.
    """
    rate = spec.macs_per_cycle
    totals_by_index: dict[int, float] = {}
    for flag in (False, True):
        rows = [i for i, p in enumerate(prefetch_flags) if bool(p) is flag]
        short = [i for i in rows if len(schedules[i].groups) <= _BATCH_GROUP_LIMIT]
        if short:
            totals = _batch_totals(
                [schedules[i] for i in short],
                np.array([bandwidths[i] for i in short], dtype=np.float64),
                rate,
                flag,
            )
            for j, i in enumerate(short):
                totals_by_index[i] = float(totals[j])
        for i in rows:
            if i not in totals_by_index:
                totals_by_index[i] = _scalar_total(schedules[i], bandwidths[i], rate, flag)
    results: list[LatencyBreakdown] = []
    for i, schedule in enumerate(schedules):
        compute = schedule.total_macs / rate
        dma = (schedule.total_load + schedule.total_store) / bandwidths[i]
        total = totals_by_index[i]
        if prefetch_flags[i]:
            # Port-work conservation, exactly as the scalar path.
            total = max(total, dma)
        results.append(
            LatencyBreakdown(
                total_cycles=total, compute_cycles=compute, dma_cycles=dma
            )
        )
    return results
