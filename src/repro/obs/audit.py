"""Planner decision audit trail: why each layer got its policy.

Algorithm 1 evaluates every policy in the P1–P5/intra/tiled family (with
and without prefetch) per layer and keeps exactly one.  The audit trail
captures what it saw: every candidate with its capacity check, predicted
off-chip traffic and latency, and the accept/reject reason — including
candidates that never produced a plan because no tiling fit the GLB.

Recording is always on (it is pure bookkeeping over values the planner
computes anyway, and fully deterministic), so a plan explains itself
whether or not tracing was enabled — ``repro explain <model>`` and
:meth:`repro.analyzer.plan.ExecutionPlan.explain` read it back.

This module is pure data: frozen dataclasses plus payload rendering, no
imports from the planner (the planner imports *us*).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

#: One candidate as stored in a trail, in :class:`CandidateRecord` field
#: order: ``(label, policy, prefetch, feasible, chosen, reason,
#: memory_bytes, accesses_bytes, latency_cycles)``.  Plain tuples pickle
#: to a fraction of the bytes and decode time of dataclass instances, and
#: a cached plan holds about a thousand of them.
CandidateRow = tuple[str, str, bool, bool, bool, str, int | None, int | None, float | None]


def _status(chosen: bool, feasible: bool) -> str:
    if chosen:
        return "chosen"
    return "rejected" if feasible else "infeasible"


@dataclass(frozen=True)
class CandidateRecord:
    """One (policy, prefetch) instantiation: the read view of a :data:`CandidateRow`."""

    #: Candidate label, e.g. ``"p2+p"`` (Table 4 style).
    label: str
    policy: str
    prefetch: bool
    #: Whether any tiling fit the GLB budget (the Eq. (1)/(2) check).
    feasible: bool
    #: Whether Algorithm 1 (or the inter-layer pass) picked this one.
    chosen: bool
    #: Human-readable accept/reject reason.
    reason: str
    #: GLB residency of the candidate; None when infeasible.
    memory_bytes: int | None = None
    #: Predicted off-chip traffic; None when infeasible.
    accesses_bytes: int | None = None
    #: Predicted latency; None when infeasible.
    latency_cycles: float | None = None

    @property
    def status(self) -> str:
        """``chosen`` / ``rejected`` / ``infeasible``."""
        return _status(self.chosen, self.feasible)


@dataclass(frozen=True)
class LayerDecision:
    """All candidates of one layer, exactly one of them chosen."""

    index: int
    layer: str
    #: The candidates as :data:`CandidateRow` tuples, in try order.
    rows: tuple[CandidateRow, ...]

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Cache entries pickled before trails held rows carry
        # ``candidates`` instead; refusing them makes the cache recompute.
        if "rows" not in state:
            raise ValueError("LayerDecision state without candidate rows")
        self.__dict__.update(state)

    @property
    def candidates(self) -> tuple[CandidateRecord, ...]:
        """Every candidate as a :class:`CandidateRecord` view."""
        return tuple(CandidateRecord(*row) for row in self.rows)

    @property
    def chosen_row(self) -> CandidateRow | None:
        """The accepted candidate's row (None only for malformed trails)."""
        return next((row for row in self.rows if row[4]), None)

    @property
    def chosen(self) -> CandidateRecord | None:
        """The accepted candidate (None only for malformed trails)."""
        row = self.chosen_row
        return None if row is None else CandidateRecord(*row)

    @property
    def rejected(self) -> tuple[CandidateRecord, ...]:
        """Every candidate that was not accepted (incl. infeasible ones)."""
        return tuple(CandidateRecord(*row) for row in self.rows if not row[4])


@dataclass(frozen=True)
class DecisionTrail:
    """The full audit of one planning run."""

    scheme: str
    objective: str
    glb_bytes: int
    layers: tuple[LayerDecision, ...]
    notes: tuple[str, ...] = ()

    def to_payload(self) -> dict[str, object]:
        """JSON-safe rendering (``repro explain --format json``)."""
        return {
            "scheme": self.scheme,
            "objective": self.objective,
            "glb_bytes": self.glb_bytes,
            "notes": list(self.notes),
            "layers": [
                {
                    "index": decision.index,
                    "layer": decision.layer,
                    "candidates": [
                        {
                            "label": row[0],
                            "policy": row[1],
                            "prefetch": row[2],
                            "feasible": row[3],
                            "chosen": row[4],
                            "status": _status(row[4], row[3]),
                            "reason": row[5],
                            "memory_bytes": row[6],
                            "accesses_bytes": row[7],
                            "latency_cycles": row[8],
                        }
                        for row in decision.rows
                    ],
                }
                for decision in self.layers
            ],
        }


@dataclass
class TrailBuilder:
    """Mutable accumulator the planner fills while Algorithm 1 runs."""

    scheme: str
    objective: str
    glb_bytes: int
    layers: list[LayerDecision] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_layer(self, index: int, layer: str, rows: Sequence[CandidateRow]) -> None:
        """Record one layer's full candidate set (a tuple is kept as is,
        so layers that share a decision share its rows)."""
        self.layers.append(LayerDecision(index=index, layer=layer, rows=tuple(rows)))

    def note(self, text: str) -> None:
        """Append a trail-level note (e.g. inter-layer pass summary)."""
        self.notes.append(text)

    def rechoose(self, index: int, label: str, reason: str) -> None:
        """Move layer ``index``'s chosen flag to candidate ``label``.

        Used when the inter-layer DP overrides Algorithm 1's per-layer
        pick; the original winner keeps a reason explaining the override.
        """
        for pos, decision in enumerate(self.layers):
            if decision.index != index:
                continue
            updated: list[CandidateRow] = []
            for row in decision.rows:
                if row[0] == label:
                    row = row[:4] + (True, reason) + row[6:]
                elif row[4]:
                    overridden = "Algorithm 1 pick, overridden by inter-layer DP"
                    row = row[:4] + (False, overridden) + row[6:]
                updated.append(row)
            self.layers[pos] = replace(decision, rows=tuple(updated))
            return

    def build(self) -> DecisionTrail:
        """Freeze the accumulated decisions into a :class:`DecisionTrail`."""
        return DecisionTrail(
            scheme=self.scheme,
            objective=self.objective,
            glb_bytes=self.glb_bytes,
            layers=tuple(self.layers),
            notes=tuple(self.notes),
        )
