"""Per-layer, per-policy evaluation: Algorithm 1 lines 7–9.

``evaluate_layers`` instantiates every policy (with and without
prefetching) on each layer of a model and returns each layer's feasible
candidates with their estimated memory, off-chip accesses and latency —
exactly the quantities Algorithm 1 compares — evaluating all of them in
one batch (``evaluate_layer`` returns one layer's evaluations).  The tile
search is always evaluated alongside the named policies, so one entry
per layer serves every scheme: ``Het`` lets it compete, while
``Hom(family)`` and the rescue-only ``het(named-only)`` plan (paper
§3.3) read its tries only for a layer their named policies cannot fit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby
from typing import NamedTuple, Sequence

from ..arch.spec import AcceleratorSpec
from ..dram.trace import clear_dram_memo
from ..nn.layer import LayerSpec
from ..obs import get_tracer
from ..obs.audit import CandidateRow
from ..policies.base import CandidatePlan, Policy, TileSizes
from ..policies.registry import FALLBACK_POLICY, NAMED_POLICIES
from ..policies.tiled import clear_grid_memo
from .latency import (
    LatencyBreakdown,
    effective_dram_bandwidths,
    schedule_latency,
    schedule_latency_batch,
)


@dataclass(frozen=True)
class PolicyAttempt:
    """One (policy, prefetch) instantiation *try*, feasible or not.

    Each :data:`LayerEntry` records every attempt — including those
    where no tiling fit the GLB budget — so the planner's decision audit
    trail (:mod:`repro.obs.audit`) can explain infeasible candidates, not
    just the feasible ones it compared.
    """

    policy_name: str
    prefetch: bool
    feasible: bool
    fallback: bool = False

    @property
    def label(self) -> str:
        return self.policy_name + ("+p" if self.prefetch else "")


@dataclass(frozen=True)
class PolicyEvaluation:
    """One feasible (layer, policy, prefetch) instantiation with estimates."""

    plan: CandidatePlan
    memory_bytes: int
    accesses_bytes: int
    read_bytes: int
    write_bytes: int
    latency: LatencyBreakdown

    @property
    def label(self) -> str:
        return self.plan.label

    @property
    def policy_name(self) -> str:
        return self.plan.policy_name

    @property
    def prefetch(self) -> bool:
        return self.plan.prefetch

    @property
    def latency_cycles(self) -> float:
        return self.latency.total_cycles


#: Algorithm 1's decision over one candidate set under one objective: the
#: winner's index into the entry's feasible evaluations and the
#: audit-trail rows of every try compared, in try order.
Decision = tuple[int, tuple[CandidateRow, ...]]

#: :data:`Decision` by objective (``Het``) or by ``(objective, families)``
#: (``Hom(family)`` or ``het(named-only)``, over those families' tries),
#: filled by the planner.
DecisionSlot = dict[object, Decision]


def estimate_memory(plan: CandidatePlan, spec: AcceleratorSpec) -> int:
    """GLB bytes the plan needs (Eq. (1), doubled per Eq. (2) for +p)."""
    return plan.memory_elems * spec.bytes_per_elem


def estimate_accesses(plan: CandidatePlan, spec: AcceleratorSpec) -> int:
    """Total off-chip traffic of the plan in bytes."""
    return plan.traffic.total * spec.bytes_per_elem


def estimate_latency(plan: CandidatePlan, spec: AcceleratorSpec) -> LatencyBreakdown:
    """Latency of the plan under the two-resource overlap model.

    DRAM-aware when ``spec.dram`` is set (the plan knows its layer, so the
    effective-bandwidth substitution applies automatically).
    """
    return schedule_latency(plan.schedule, spec, plan.prefetch, layer=plan.layer)


def estimate_latency_batch(
    plans: Sequence[CandidatePlan], spec: AcceleratorSpec
) -> list[LatencyBreakdown]:
    """Latency of every plan of a grid in one vectorized recurrence pass.

    Each plan runs at its own effective bandwidth (trace-simulated when
    ``spec.dram`` is banked); bit-identical to :func:`estimate_latency` per
    plan.  The recurrence spans every plan, while the trace replay runs
    one batch per run of consecutive plans of one layer (object), each of
    its memo-missed schedules once: the replay's working set grows with
    its batch, and replaying a whole model's misses at once raised the
    cold DDR4 benchmark's peak RSS by about a fifth.
    """
    bandwidths: list[float] = []
    for _, run in groupby(plans, key=lambda plan: id(plan.layer)):
        items = [(plan.schedule, plan.layer) for plan in run]
        bandwidths += effective_dram_bandwidths(items, spec)
    return schedule_latency_batch(
        [p.schedule for p in plans], spec, [p.prefetch for p in plans], bandwidths
    )


def evaluate_plans(
    plans: Sequence[CandidatePlan], spec: AcceleratorSpec
) -> list[PolicyEvaluation]:
    """Evaluate a batch of candidates (any number of layers) in one shot.

    Byte counts are native ``int`` products; all latencies come from one
    batched recurrence (:func:`estimate_latency_batch`), which returns
    native ``float`` fields, so no NumPy scalar ever reaches a
    :class:`PolicyEvaluation` (and from there cached plans, cache keys or
    JSON exports) — a type-pinning test enforces this.
    """
    b = spec.bytes_per_elem
    latencies = estimate_latency_batch(plans, spec)
    return [
        PolicyEvaluation(
            plan=plan,
            memory_bytes=estimate_memory(plan, spec),
            accesses_bytes=estimate_accesses(plan, spec),
            read_bytes=plan.traffic.reads * b,
            write_bytes=plan.traffic.writes * b,
            latency=latency,
        )
        for plan, latency in zip(plans, latencies)
    ]


#: One layer's entry: its feasible evaluations, every (policy, prefetch)
#: try of the named policies and the tile search in Algorithm 1 order,
#: and its decision slot.
LayerEntry = tuple[tuple[PolicyEvaluation, ...], tuple[PolicyAttempt, ...], DecisionSlot]


def evaluate_layer(
    layer: LayerSpec, spec: AcceleratorSpec, allow_prefetch: bool = True
) -> list[PolicyEvaluation]:
    """All feasible policy instantiations of one layer within the GLB:
    the evaluations of :func:`evaluate_layers` on this one layer."""
    return list(evaluate_layers([layer], spec, allow_prefetch)[0][0])


def evaluate_layers(
    layers: Sequence[LayerSpec], spec: AcceleratorSpec, allow_prefetch: bool = True
) -> list[LayerEntry]:
    """Every layer's :data:`LayerEntry`, with all candidates evaluated in one batch.

    The tile search is always among the candidates.  Every planner reads
    these entries: ``Het`` decides over all of one, while ``Hom(family)``
    and ``het(named-only)`` take their families' tries, and the tile
    search's where none of them fits.

    A layer is planned as its :attr:`~repro.nn.layer.LayerSpec.shape`:
    nothing here depends on the name, so every returned
    :class:`PolicyEvaluation` (and its ``plan.layer``) is shared by all
    layers of that shape.  The caller attaches the name where it emits a
    plan (:func:`~repro.analyzer.plan.make_assignment`).

    An entry is a pure function of the shape and the other arguments
    (everything involved is a frozen dataclass), so it is memoized at two
    levels.  The per-layer memo returns an entry already made at the same
    spec.  Behind it, the shape memo keeps one record per shape: each
    policy's budget-independent residency, the shape's candidates and its
    decision slots.  A fixed policy's capacity signature is then one
    comparison against the recorded residency; P4, P5 and the tile search
    compute theirs.  A candidate is keyed on every spec field but
    ``glb_bytes``, the policy, the prefetch flag and the policy's capacity
    signature at this budget, and holds the evaluation (None when
    infeasible).  Equal signatures imply identical plans, so across a GLB
    sweep a candidate is planned and evaluated once per signature, not
    once per size.  Evaluation runs in two phases: each distinct shape the
    per-layer memo misses walks the policies in Algorithm 1 order and
    plans its candidate misses, then every miss of every layer goes
    through one batched :func:`evaluate_plans` (one max-plus recurrence
    for the whole call; DRAM trace replays stay batched per layer).  The
    tile search memoizes its budget-independent grid and frontier the
    same way (:func:`~repro.policies.tiled.tile_grid`).  Walks of one
    shape whose tuples of candidate keys are equal see equal evaluations,
    so they share one decision slot, in which the planner memoizes
    Algorithm 1's pick per objective (and per family set for ``Hom`` and
    named-only).

    An entry's evaluations are empty only when even the tile-search
    fallback cannot fit, which for sane GLB sizes does not happen (the
    fallback's smallest footprint is a couple of rows).
    """
    budget = spec.glb_elems
    prefetch_options = (False, True) if allow_prefetch else (False,)
    spec_key = tuple(getattr(spec, name) for name in _SPEC_KEY_FIELDS)
    by_shape = _LAYER_MEMO.get((spec, allow_prefetch))
    if by_shape is None:
        if len(_LAYER_MEMO) > _LAYER_MEMO_MAX:
            _LAYER_MEMO.clear()
        by_shape = _LAYER_MEMO.setdefault((spec, allow_prefetch), {})
    shapes = [layer.shape for layer in layers]
    # Keyed by ``id``: shapes are interned, and ``shapes`` keeps them alive
    # for the call (should the intern table reset mid-call, an equal shape
    # is merely walked again).
    entries: dict[int, LayerEntry] = {}
    # Phase 1: each distinct shape the per-layer memo misses walks its
    # (policy, prefetch) tries in Algorithm 1 order, one ``found`` slot per
    # try.  Candidate hits fill their slot now; misses are planned now,
    # queued with their record and slot, and evaluated together in phase 2.
    walks: list[tuple[LayerSpec, _ShapeRecord, list[PolicyAttempt], list[_Key], list[_Found]]] = []
    misses: list[CandidatePlan] = []
    pending: list[tuple[dict[_Key, _Found], list[_Found], int, _Key]] = []
    for shape in {id(shape): shape for shape in shapes}.values():
        entry = by_shape.get(shape)
        if entry is not None:
            entries[id(shape)] = entry
            continue
        record = _SHAPE_MEMO.get(shape)
        if record is None or len(record.candidates) > _SHAPE_RECORD_MAX:
            if len(_SHAPE_MEMO) > _SHAPE_MEMO_MAX:
                _SHAPE_MEMO.clear()
            record = _SHAPE_MEMO[shape] = _ShapeRecord(
                tuple(policy.residency(shape) for policy, _ in _POLICIES), {}, {}
            )
        candidates = record.candidates
        tries: list[PolicyAttempt] = []
        keys: list[_Key] = []
        found: list[_Found] = []
        for index, ((policy, _), tiles) in enumerate(zip(_POLICIES, record.residency)):
            for prefetch in prefetch_options:
                if tiles is None:
                    signature = policy.capacity_signature(shape, budget, prefetch)
                else:
                    signature = policy._fits(tiles, budget, prefetch)
                key = (spec_key, index, prefetch, signature)
                value = candidates.get(key, _MISSING)
                if value is _MISSING:
                    plan = policy.plan(shape, budget, prefetch)
                    feasible = plan is not None
                    if plan is None:
                        candidates[key] = None
                    else:
                        pending.append((candidates, found, len(found), key))
                        misses.append(plan)
                else:
                    feasible = value is not None
                tries.append(_ATTEMPTS[index][prefetch][feasible])
                keys.append(key)
                found.append(value if isinstance(value, PolicyEvaluation) else None)
        walks.append((shape, record, tries, keys, found))

    # Phase 2: every miss of the call in one batch.
    if misses:
        with get_tracer().start("evaluate_candidates", candidates_count=len(misses)):
            evaluated = evaluate_plans(misses, spec)
        for (candidates, found, i, key), evaluation in zip(pending, evaluated):
            candidates[key] = evaluation
            found[i] = evaluation
    if walks and len(by_shape) > _SHAPE_MEMO_MAX:
        by_shape.clear()
    for shape, record, tries, keys, found in walks:
        decision_key = tuple(keys)
        slot = record.decisions.get(decision_key)
        if slot is None:
            slot = record.decisions[decision_key] = {}
        evaluations = tuple(evaluation for evaluation in found if evaluation is not None)
        entries[id(shape)] = by_shape[shape] = (evaluations, tuple(tries), slot)
    return [entries[id(shape)] for shape in shapes]


def clear_evaluation_memo() -> None:
    """Drop the in-process evaluation memos (cold-start benches): the
    per-layer memo, the shape records (candidates and decision slots),
    the tile grids and the DRAM effective bandwidths."""
    _LAYER_MEMO.clear()
    _SHAPE_MEMO.clear()
    clear_grid_memo()
    clear_dram_memo()


#: Spec fields a candidate's evaluation depends on: every field but
#: ``glb_bytes``, which reaches a candidate only through its budget and so
#: through its capacity signature.
_SPEC_KEY_FIELDS = tuple(
    f.name for f in fields(AcceleratorSpec) if f.name != "glb_bytes"
)

#: A candidate key, ``(spec key, policy index, prefetch, capacity
#: signature)``, and what it maps to: the evaluation, or None when the
#: candidate does not fit.
_Key = tuple[object, ...]
_Found = PolicyEvaluation | None
_MISSING = object()


class _ShapeRecord(NamedTuple):
    """What the walks of one shape share across specs and budgets.

    ``residency`` is each policy's budget-independent
    :meth:`~repro.policies.base.Policy.residency` in try order (None for
    P4, P5 and the tile search).  ``candidates`` maps a candidate key to
    its evaluation: equal signatures imply identical plans
    (:meth:`~repro.policies.base.Policy.capacity_signature`), so a GLB
    sweep plans and evaluates each candidate once per signature instead of
    once per size.  ``decisions`` maps a walk's tuple of candidate keys,
    which fixes its tries and evaluations and so every decision over them,
    to its decision slot: across GLB sizes whose signatures held, and
    across layers of the shape, Algorithm 1 runs once per objective.
    """

    residency: tuple[TileSizes | None, ...]
    candidates: dict[_Key, _Found]
    decisions: dict[tuple[_Key, ...], DecisionSlot]


#: Shape memo: a shape -> its :class:`_ShapeRecord`.  Every memo here and
#: in the tile search follows one discipline: one ``.get`` (with a
#: sentinel for the candidates, as None is a real value), idempotent puts
#: of deterministic values, and a wholesale reset above the cap (a racing
#: or reset miss only costs a re-plan or a re-selection).  A record whose
#: candidates pass ``_SHAPE_RECORD_MAX`` is replaced by a fresh one.  A
#: cold flat zoo pass (161 shapes, at most 41 candidates each) and a
#: serial experiment suite (281 shapes, at most 100) stay below both caps.
_SHAPE_MEMO: dict[LayerSpec, _ShapeRecord] = {}
_SHAPE_MEMO_MAX = 1024
_SHAPE_RECORD_MAX = 256

#: Per-layer memo: ``(spec, allow_prefetch)`` -> shape -> the shape's
#: :data:`LayerEntry`, so a call hashes its spec once.  Same discipline:
#: the outer dict resets above ``_LAYER_MEMO_MAX`` specs (the experiment
#: suite uses 20), an inner one above ``_SHAPE_MEMO_MAX`` shapes (a racing
#: or reset miss only costs a re-walk over the shape records).
_LAYER_MEMO: dict[tuple[AcceleratorSpec, bool], dict[LayerSpec, LayerEntry]] = {}
_LAYER_MEMO_MAX = 64

#: Algorithm 1's try order: each named policy, then the tile search
#: (flagged as the fallback).
_POLICIES: tuple[tuple[Policy, bool], ...] = (
    *((policy, False) for policy in NAMED_POLICIES),
    (FALLBACK_POLICY, True),
)

#: Every :class:`PolicyAttempt` a walk can record, by try index, prefetch
#: flag and feasibility.
_ATTEMPTS = tuple(
    tuple(
        tuple(
            PolicyAttempt(policy.name, prefetch, feasible, fallback)
            for feasible in (False, True)
        )
        for prefetch in (False, True)
    )
    for policy, fallback in _POLICIES
)
