"""Policy framework: tile plans, streaming schedules and the policy ABC.

A *policy* (paper §3.2) decides which data stays resident in the global
buffer, what streams through it tile by tile, and therefore how much memory
the layer needs and how many off-chip transfers it performs.  Evaluating a
policy on a layer yields a :class:`CandidatePlan`:

* ``tiles`` — the Eq. (1)/(2) residency terms ``I_Tile + F_Tile + O_Tile``;
* ``traffic`` — exact off-chip reads/writes in elements;
* ``schedule`` — a compact streaming schedule (groups of identical steps)
  that the latency estimator and the validation simulator both consume.

All quantities are in *elements*; byte conversion happens at the estimator
boundary through the :class:`~repro.arch.AcceleratorSpec`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..nn.layer import LayerSpec


@dataclass(frozen=True)
class TileSizes:
    """Residency requirement of a policy: the Eq. (1) terms, in elements."""

    ifmap: int
    filters: int
    ofmap: int

    def __post_init__(self) -> None:
        if min(self.ifmap, self.filters, self.ofmap) < 0:
            raise ValueError("tile sizes must be non-negative")

    @property
    def total(self) -> int:
        return self.ifmap + self.filters + self.ofmap


@dataclass(frozen=True)
class Traffic:
    """Exact off-chip transfers of a plan, in elements."""

    ifmap_reads: int
    filter_reads: int
    ofmap_writes: int
    #: Intermediate ofmap spill/refill traffic (tiled fallback only).
    ofmap_spills: int = 0

    def __post_init__(self) -> None:
        if min(self.ifmap_reads, self.filter_reads, self.ofmap_writes, self.ofmap_spills) < 0:
            raise ValueError("traffic must be non-negative")

    @property
    def reads(self) -> int:
        return self.ifmap_reads + self.filter_reads + self.ofmap_spills

    @property
    def writes(self) -> int:
        return self.ofmap_writes + self.ofmap_spills

    @property
    def total(self) -> int:
        return self.reads + self.writes


@dataclass(frozen=True)
class StepGroup:
    """``count`` identical streaming steps.

    Each step loads ``ifmap`` + ``filters`` elements from off-chip, performs
    ``macs`` multiply-accumulates, and writes back ``store`` ofmap elements.
    Loads are split by tensor so the inter-layer-reuse transform can strip
    ifmap traffic exactly.  Schedules are stored as groups so that layers
    with thousands of uniform steps stay O(1) to describe; the validation
    simulator expands them on demand.
    """

    count: int
    ifmap: int = 0
    filters: int = 0
    macs: int = 0
    store: int = 0

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("step group count must be positive")
        if min(self.ifmap, self.filters, self.macs, self.store) < 0:
            raise ValueError("step group quantities must be non-negative")

    @property
    def load(self) -> int:
        """Total off-chip load of one step."""
        return self.ifmap + self.filters


@dataclass(frozen=True)
class LayerSchedule:
    """Streaming schedule of one layer under one policy.

    ``resident_ifmap``/``resident_filters`` elements are fetched once before
    any compute starts (e.g. all filters under Policy 1); the step groups
    then stream the rest.
    """

    groups: tuple[StepGroup, ...]
    resident_ifmap: int = 0
    resident_filters: int = 0

    def __post_init__(self) -> None:
        if min(self.resident_ifmap, self.resident_filters) < 0:
            raise ValueError("resident loads must be non-negative")

    @property
    def resident_load(self) -> int:
        return self.resident_ifmap + self.resident_filters

    @property
    def total_ifmap_load(self) -> int:
        return self.resident_ifmap + sum(g.count * g.ifmap for g in self.groups)

    @property
    def total_filter_load(self) -> int:
        return self.resident_filters + sum(g.count * g.filters for g in self.groups)

    @property
    def total_load(self) -> int:
        return self.total_ifmap_load + self.total_filter_load

    @property
    def total_store(self) -> int:
        return sum(g.count * g.store for g in self.groups)

    @property
    def total_macs(self) -> int:
        return sum(g.count * g.macs for g in self.groups)

    @property
    def num_steps(self) -> int:
        return sum(g.count for g in self.groups)


@dataclass(frozen=True)
class CandidatePlan:
    """A feasibility-checked policy instantiation for one layer."""

    policy_name: str
    layer: LayerSpec
    tiles: TileSizes
    traffic: Traffic
    schedule: LayerSchedule
    prefetch: bool
    #: Filter-block size for the memory-dependent policies (P4/P5); None
    #: for the fixed policies.
    block_size: int | None = None
    #: Ofmap tile extent for band-tiled plans: (rows o_t, cols w_t).
    #: None for the named policies (their tiles are implied).
    tile_shape: tuple[int, int] | None = None
    #: Whether the full ofmap is resident when the layer finishes — the
    #: prerequisite for donating it to the next layer (inter-layer reuse).
    ofmap_resident_at_end: bool = False

    @property
    def memory_elems(self) -> int:
        """GLB residency per Eq. (1) (doubled per Eq. (2) with prefetch)."""
        return (2 if self.prefetch else 1) * self.tiles.total

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"p2+p"`` (Table 4 / Fig. 6 style)."""
        return self.policy_name + ("+p" if self.prefetch else "")


class Policy(abc.ABC):
    """A memory-management policy (paper §3.2)."""

    #: Short identifier used in plans and reports ("intra", "p1", .., "p5").
    name: str = ""

    @abc.abstractmethod
    def plan(
        self, layer: LayerSpec, budget_elems: int, prefetch: bool
    ) -> CandidatePlan | None:
        """Instantiate the policy for ``layer`` within ``budget_elems``.

        Returns ``None`` when the policy cannot fit the budget (Eq. (1) or
        Eq. (2) violated for every parameterization).
        """

    def residency(self, layer: LayerSpec) -> TileSizes | None:
        """Budget-independent Eq. (1) residency, when the policy has one.

        The fixed policies (intra, P1–P3) derive their tiles from the layer
        alone — the budget only gates feasibility — so they return their
        tiles here.  Budget-dependent policies (P4/P5's block size, the
        tile search) return ``None`` and override
        :meth:`capacity_signature` instead.
        """
        return None

    def capacity_signature(
        self, layer: LayerSpec, budget_elems: int, prefetch: bool
    ) -> object:
        """Everything :meth:`plan` takes from the budget, as a comparable value.

        **Contract:** equal signatures at two budgets imply :meth:`plan`
        returns identical results at both — the soundness condition for
        the shape records of
        :func:`~repro.estimators.evaluate.evaluate_layers`, which reuse an
        evaluation across GLB sizes by this signature.  For the fixed
        policies that is the Eq. (1)/(2) feasibility bit, which
        ``evaluate_layers`` computes itself from the residency it records
        (so a policy with a residency keeps this default); budget-dependent
        policies encode their chosen parameters (block size ``n``, winning
        tile shape).  The default is maximally conservative: the budget
        itself, which forces a re-plan whenever the budget moves.
        """
        tiles = self.residency(layer)
        if tiles is None:
            return budget_elems
        return self._fits(tiles, budget_elems, prefetch)

    # Helpers shared by concrete policies -------------------------------

    @staticmethod
    def _fits(tiles: TileSizes, budget_elems: int, prefetch: bool) -> bool:
        factor = 2 if prefetch else 1
        return factor * tiles.total <= budget_elems

    @staticmethod
    def row_step(layer: LayerSpec) -> int:
        """New ifmap rows a sliding-window step loads.

        ``stride`` rows for the common ``stride ≤ F_H`` case; when the
        stride exceeds the filter the window skips rows entirely and each
        step loads a fresh ``F_H``-row window.
        """
        return min(layer.stride, layer.f_h)

    @staticmethod
    def covered_rows(layer: LayerSpec) -> int:
        """Padded ifmap rows actually touched by the sliding window."""
        touched = layer.f_h + (layer.out_h - 1) * Policy.row_step(layer)
        return min(layer.padded_h, touched)

    @staticmethod
    def covered_cols(layer: LayerSpec) -> int:
        """Padded ifmap columns actually touched by the sliding window.

        Equals the full padded width for the universal ``stride ≤ F_W``
        case; strided layers with ``S > F_W`` skip columns, which traffic
        accounting must not charge (the declared *tile* still spans the
        padded width — only transfers count touched data).
        """
        step = min(layer.stride, layer.f_w)
        touched = layer.f_w + (layer.out_w - 1) * step
        return min(layer.padded_w, touched)

    @staticmethod
    def ifmap_pass_elems(layer: LayerSpec) -> int:
        """Elements of one height-wise pass over the touched padded ifmap."""
        return (
            Policy.covered_rows(layer)
            * Policy.covered_cols(layer)
            * layer.in_c
        )

    @staticmethod
    def ifmap_pass_elems_per_channel(layer: LayerSpec) -> int:
        """Elements of one height-wise pass over a single padded channel."""
        return Policy.covered_rows(layer) * Policy.covered_cols(layer)
