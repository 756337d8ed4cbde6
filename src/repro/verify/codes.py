"""The diagnostic-code catalog of the plan verifier.

Codes are stable identifiers: tests, tooling and documentation reference
them by name, so existing codes must never be renumbered — new invariants
append new codes.  ``docs/verification.md`` mirrors this table and a test
asserts the two stay in sync.

Catalog overview
----------------
Candidate-level invariants (one policy instantiation on one layer):

* ``V003``–``V011`` check that a :class:`~repro.policies.base.CandidatePlan`
  is internally consistent — Eq. (1)/(2) footprint within the budget,
  traffic totals equal to what the streaming schedule implies, MAC
  conservation, the paper's ifmap load-multiplicity table, and per-step
  bounds.

Assignment/plan-level invariants (a scheduled layer inside an
:class:`~repro.analyzer.plan.ExecutionPlan`):

* ``V001``/``V002`` check GLB capacity including inter-layer resident
  regions and the ×2 prefetch factor;
* ``V009``/``V010`` check the assignment's derived byte/latency metrics;
* ``V012``/``V013`` check the inter-layer donation chain;
* ``V014``–``V016`` check address-level realizability against
  :mod:`repro.sim.glb`;
* ``V017`` checks the plan's structural integrity;
* ``V018``/``V019`` check the banked-DRAM backend's output for every
  DRAM-backed plan (timing no better than the flat peak-bandwidth bound,
  and internally consistent row-buffer statistics).
"""

from __future__ import annotations

#: code → short title (stable; rendered in reports and docs).
CODE_TITLES: dict[str, str] = {
    "V001": "capacity exceeded",
    "V002": "memory metric mismatch",
    "V003": "tile budget exceeded",
    "V004": "ifmap traffic / schedule mismatch",
    "V005": "filter traffic / schedule mismatch",
    "V006": "store traffic / schedule mismatch",
    "V007": "MAC conservation violated",
    "V008": "ifmap load multiplicity violated",
    "V009": "assignment metric mismatch",
    "V010": "negative quantity",
    "V011": "step store exceeds ofmap tile",
    "V012": "inter-layer chain broken",
    "V013": "invalid donation edge",
    "V014": "layout unrealizable",
    "V015": "layout region overlap / out of bounds",
    "V016": "donated region not threaded",
    "V017": "plan structure inconsistent",
    "V018": "DRAM timing below ideal bound",
    "V019": "DRAM statistics inconsistent",
}

#: code → full description (the invariant that must hold).
CODE_DESCRIPTIONS: dict[str, str] = {
    "V001": (
        "The layer's GLB residency — streamed tiles with the Eq. (2) ×2 "
        "prefetch factor, plus full-size inter-layer resident regions — "
        "must not exceed the accelerator's GLB capacity in bytes."
    ),
    "V002": (
        "The assignment's stored memory_bytes must equal the residency "
        "recomputed from its tiles, prefetch flag and donation flags."
    ),
    "V003": (
        "A candidate plan's tile footprint (I_Tile + F_Tile + O_Tile, "
        "doubled under prefetch per Eq. (2)) must fit the GLB element "
        "budget it was planned for."
    ),
    "V004": (
        "The candidate's declared ifmap_reads must equal the total ifmap "
        "load implied by its streaming schedule (resident fetch + step "
        "group loads)."
    ),
    "V005": (
        "The candidate's declared filter_reads must equal the total filter "
        "load implied by its streaming schedule."
    ),
    "V006": (
        "The candidate's declared ofmap_writes + ofmap_spills must equal "
        "the total store traffic implied by its streaming schedule."
    ),
    "V007": (
        "The schedule's step groups must perform exactly the layer's "
        "analytic MAC count — no work may be lost or duplicated."
    ),
    "V008": (
        "The ifmap must cross the off-chip interface with the multiplicity "
        "of the paper's policy table: exactly once for intra/P1–P3 (and "
        "for P4/P5 on depth-wise layers), ⌈F#/n⌉ times for dense P4/P5 "
        "with filter-block size n; the tiled fallback may not transfer "
        "less than one full pass."
    ),
    "V009": (
        "The assignment's read/write/accesses byte counts and latency "
        "must equal the values implied by its candidate traffic and "
        "(donation-transformed) schedule."
    ),
    "V010": "No metric of an assignment may be negative.",
    "V011": (
        "No streaming step may store more elements than the candidate's "
        "declared ofmap tile can hold."
    ),
    "V012": (
        "A layer marked as receiving a donated ifmap requires the "
        "preceding layer to donate; donation flags must form a consistent "
        "producer→consumer chain."
    ),
    "V013": (
        "A donation edge requires a direct producer→consumer pair (shapes "
        "match, not the last layer) and a donor that completes its ofmap "
        "on-chip (no partial-sum spills)."
    ),
    "V014": (
        "Every assignment must admit a non-overlapping GLB address map, "
        "with donated regions surviving the layer transition "
        "(cross-checked against repro.sim.glb.layout_plan)."
    ),
    "V015": (
        "All laid-out regions must sit inside [0, GLB) and be pairwise "
        "disjoint."
    ),
    "V016": (
        "A receiver's donated-ifmap region must be exactly the address "
        "range its producer's donated ofmap occupies (ping-pong across "
        "layer transitions)."
    ),
    "V017": (
        "The plan must have one assignment per model layer, in order, "
        "each referencing the layer at its own index and a candidate "
        "planned for that layer's shape."
    ),
    "V018": (
        "The trace-simulated DRAM cycles of a layer's schedule must be at "
        "least the idealized flat-bandwidth bound (total bytes divided by "
        "the device's peak bytes/cycle): row-buffer conflicts can only "
        "slow a transfer down, so delivered bandwidth may never exceed "
        "the device peak."
    ),
    "V019": (
        "The backend's row-buffer statistics must be internally "
        "consistent: bursts equal hits plus misses, one activation per "
        "row miss, and the read/write byte totals must equal the "
        "(donation-transformed) schedule's load/store traffic in bytes."
    ),
}

#: All catalog codes in numeric order.
ALL_CODES: tuple[str, ...] = tuple(sorted(CODE_TITLES))


def describe(code: str) -> str:
    """Full catalog description of a code (raises on unknown codes)."""
    return CODE_DESCRIPTIONS[code]
