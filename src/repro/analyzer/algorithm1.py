"""Algorithm 1: pick the best policy per layer for a given objective.

The paper's Algorithm 1 iterates policies per layer, keeps those whose
memory estimate fits the GLB, and selects the one with minimum accesses,
tie-broken on latency.  The latency-objective variant (used for ``Hom_l`` /
``Het_l`` in §5.2) swaps the comparison order.  Both are expressed by the
lexicographic :meth:`~repro.analyzer.objectives.Objective.key`.

When the caller passes an ``audit`` list, the selection also records one
:data:`~repro.obs.audit.CandidateRow` per feasible candidate — the
winner with its metrics, every loser with the concrete reason it lost
(how much more traffic / how many more cycles than the winner).  The
recording is pure bookkeeping over already-computed values and never
changes which candidate wins.
"""

from __future__ import annotations

import sys

from ..estimators.evaluate import PolicyEvaluation
from ..obs.audit import CandidateRow
from .objectives import Objective


def _cycles_slower(extra_cycles: float) -> str:
    """Truthful phrasing of a positive cycle delta.

    Latencies are floats, so a loser can trail by a fraction of a cycle;
    rounding with ``:.0f`` used to print the lie "0 cycles slower".  Whole
    deltas keep the integer phrasing, sub-cycle deltas are reported as such.
    """
    if extra_cycles < 1.0:
        return "<1 cycle slower"
    return f"{extra_cycles:.0f} cycles slower"


def _reject_reason(
    evaluation: PolicyEvaluation, winner: PolicyEvaluation, objective: Objective
) -> str:
    """Why ``evaluation`` lost to ``winner`` under ``objective``."""
    extra_bytes = evaluation.accesses_bytes - winner.accesses_bytes
    extra_cycles = evaluation.latency_cycles - winner.latency_cycles
    if objective is Objective.ACCESSES:
        if extra_bytes > 0:
            return f"{extra_bytes} B more off-chip traffic than {winner.label}"
        if extra_cycles > 0:
            return f"same traffic as {winner.label}, {_cycles_slower(extra_cycles)}"
    else:
        if extra_cycles > 0:
            return f"{_cycles_slower(extra_cycles)} than {winner.label}"
        if extra_bytes > 0:
            return f"same latency as {winner.label}, {extra_bytes} B more traffic"
    return f"ties with {winner.label}; earlier-listed candidate kept"


def _select_index(
    evaluations: list[PolicyEvaluation], objective: Objective
) -> int:
    """Index of the Algorithm 1 winner, with **explicitly stable** ties.

    Exact key ties keep the earliest-listed candidate: the candidate index
    is the last component of the comparison key, rather than leaning on
    ``min()`` happening to be stable.
    """
    return min(
        range(len(evaluations)),
        key=lambda i: (
            *objective.key(
                evaluations[i].accesses_bytes, evaluations[i].latency_cycles
            ),
            i,
        ),
    )


def select_policy(
    evaluations: list[PolicyEvaluation],
    objective: Objective,
    audit: list[CandidateRow] | None = None,
) -> PolicyEvaluation:
    """Algorithm 1 lines 6–19 for one layer.

    ``evaluations`` must contain only feasible candidates (the memory check
    of line 10 happens during evaluation).  Raises if the layer has no
    feasible policy at all — Algorithm 1's fallback tile search should have
    produced one before this point.

    ``audit``, when given, receives one row per candidate with the
    accept/reject reason; it does not affect the selection.  Reasons are
    interned, so the many trails that repeat one reason hold (and pickle)
    one string.
    """
    if not evaluations:
        raise ValueError("no feasible policy for layer; tile search failed")
    winner = evaluations[_select_index(evaluations, objective)]
    if audit is not None:
        for ev in evaluations:
            chosen = ev is winner
            if chosen:
                reason = (
                    f"best {objective.value} of {len(evaluations)} feasible candidates"
                )
            else:
                reason = _reject_reason(ev, winner, objective)
            audit.append(
                (ev.label, ev.policy_name, ev.prefetch, True, chosen, sys.intern(reason),
                 ev.memory_bytes, ev.accesses_bytes, ev.latency_cycles)
            )
    return winner
