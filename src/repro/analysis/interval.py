"""Interval abstract domain for the value-range prover (``R07x``).

The vectorized planner (PR 8) evaluates Eq. (1)/(2) capacity and traffic
closed forms as NumPy ``int64`` arrays; an overflow there raises nothing
— it wraps silently and corrupts plans.  This module provides the
abstract domain the :mod:`repro.analysis.range_rules` pack interprets
those closed forms in:

* :class:`Interval` — a classic ``[lo, hi]`` integer interval with
  arithmetic transfer functions (``±inf`` endpoints mean "unbounded");
* :class:`Abstract` — an interval plus the NumPy-ness facts the rules
  need: the *declared* dtype family (from explicit ``dtype=`` keywords),
  whether the value lives in NumPy's fixed-width world at all, and an
  array-length bound (sums scale by it);
* the **seed tables** — worst-case intervals of the repository's domain
  quantities (``layer.macs``, ``traffic.total``, ``spec.bytes_per_elem``,
  …), derived from the declared spec bounds in :mod:`repro.arch.bounds`
  so that the prover and the runtime validators agree on the supported
  space by construction.

The domain is deliberately *sound for the question asked*: every
transfer function over-approximates (an unknown operand widens to
``[-inf, inf]``), so when the interpreter concludes an ``int64``
intermediate stays below ``2**63`` over the seeds, it actually does for
every spec/model combination the validators accept.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from ..arch import bounds as B

#: Positive infinity endpoint (intervals store ``int | float`` ends).
INF = float("inf")

#: First unrepresentable int64 magnitude.
INT64_LIMIT = 2**63

#: Largest integer float64 represents exactly (and every one below it).
FLOAT64_EXACT_LIMIT = 2**53


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (``±inf`` = unbounded)."""

    lo: int | float
    hi: int | float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def const(value: int | float) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return Interval(-INF, INF)

    @property
    def is_top(self) -> bool:
        return self.lo == -INF and self.hi == INF

    @property
    def bounded(self) -> bool:
        return self.lo != -INF and self.hi != INF

    def contains_zero(self) -> bool:
        """True when 0 lies inside the interval (division hazard)."""
        return self.lo <= 0 <= self.hi

    def join(self, other: "Interval") -> "Interval":
        """Least upper bound (union hull) of two intervals."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def add(self, other: "Interval") -> "Interval":
        """Interval sum: ``[lo+lo, hi+hi]`` with saturating infinities."""
        return Interval(_ext_add(self.lo, other.lo), _ext_add(self.hi, other.hi))

    def sub(self, other: "Interval") -> "Interval":
        """Interval difference: ``[lo-hi, hi-lo]``."""
        return Interval(_ext_add(self.lo, -other.hi), _ext_add(self.hi, -other.lo))

    def neg(self) -> "Interval":
        """Negation: ``[-hi, -lo]``."""
        return Interval(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        """Interval product via the four sign corners."""
        corners = [
            _ext_mul(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(corners), max(corners))

    def floordiv(self, other: "Interval") -> "Interval":
        """Quotient interval; meaningful only for a nonzero divisor."""
        if other.contains_zero():
            return Interval.top()
        corners = [
            _ext_div(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(corners), max(corners))

    def max_with(self, other: "Interval") -> "Interval":
        """Pointwise ``max`` — the transfer function for ``max()``."""
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def min_with(self, other: "Interval") -> "Interval":
        """Pointwise ``min`` — the transfer function for ``min()``."""
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def scaled_sum(self, count_hi: int | float) -> "Interval":
        """Interval of a sum of up to ``count_hi`` elements of this value."""
        if count_hi == INF:
            return Interval.top() if self.lo != 0 or self.hi != 0 else self
        lo = min(0, _ext_mul(self.lo, count_hi))
        hi = max(0, _ext_mul(self.hi, count_hi))
        return Interval(lo, hi)

    def describe(self) -> str:
        """Render as ``[lo, hi]`` with powers of two for large bounds."""
        def fmt(v: int | float) -> str:
            if v == INF:
                return "+inf"
            if v == -INF:
                return "-inf"
            return str(int(v))

        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


def _ext_add(a: int | float, b: int | float) -> int | float:
    if a in (INF, -INF):
        return a
    if b in (INF, -INF):
        return b
    return a + b


def _ext_mul(a: int | float, b: int | float) -> int | float:
    if a == 0 or b == 0:
        return 0
    if a in (INF, -INF) or b in (INF, -INF):
        return INF if (a > 0) == (b > 0) else -INF
    return a * b


def _ext_div(a: int | float, b: int | float) -> int | float:
    if b in (INF, -INF):
        return 0
    if a in (INF, -INF):
        return INF if (a > 0) == (b > 0) else -INF
    return a // b if isinstance(a, int) and isinstance(b, int) else a / b


#: The nonnegative unknown (counts whose size we cannot bound).
NONNEG = Interval(0, INF)


@dataclass(frozen=True)
class Abstract:
    """One expression's abstract value.

    ``dtype`` is the *declared* NumPy dtype family — ``"int"``,
    ``"float"`` or ``"bool"`` — known only when an explicit ``dtype=``
    keyword (or a dtype-definite operation) pins it; ``is_np`` says the
    value lives in NumPy's fixed-width world (where ``int64`` wraps);
    ``length_hi`` bounds the element count of array values (sums scale
    by it).
    """

    interval: Interval
    dtype: str | None = None
    #: True only when an explicit ``dtype=`` keyword (or ``astype``)
    #: pinned the dtype — inferred families don't count for R073.
    dtype_declared: bool = False
    is_np: bool = False
    is_array: bool = False
    length_hi: int | float = INF
    tainted: bool = False

    @staticmethod
    def top() -> "Abstract":
        return Abstract(interval=Interval.top())

    @staticmethod
    def of(interval: Interval) -> "Abstract":
        return Abstract(interval=interval)

    def with_interval(self, interval: Interval) -> "Abstract":
        """Copy of this value with the interval replaced, dtype kept."""
        return replace(self, interval=interval)


TOP = Abstract.top()


def join_abstract(left: Abstract, right: Abstract) -> Abstract:
    """Least upper bound of two abstract values (e.g. ``np.where`` arms)."""
    return Abstract(
        interval=left.interval.join(right.interval),
        dtype=left.dtype if left.dtype == right.dtype else None,
        dtype_declared=left.dtype_declared and right.dtype_declared,
        is_np=left.is_np or right.is_np,
        is_array=left.is_array or right.is_array,
        length_hi=max(left.length_hi, right.length_hi),
        tainted=left.tainted or right.tainted,
    )


# ----------------------------------------------------------------------
# Seed tables: the repository's domain quantities, bounded by the
# declared spec space (repro.arch.bounds).
# ----------------------------------------------------------------------

#: Worst-case per-layer traffic in bytes (the widest element applied).
_MAX_TRAFFIC_BYTES = B.MAX_LAYER_TRAFFIC_ELEMS * B.MAX_BYTES_PER_ELEM

#: Exact terminal name (attribute or bare identifier) → seed interval.
#: These are the quantities the planner's closed forms combine; their
#: bounds follow from LayerSpec / AcceleratorSpec / DramSpec validation
#: against :mod:`repro.arch.bounds`.
NAME_INTERVALS: dict[str, Interval] = {
    # LayerSpec hyperparameters and derived shapes
    "in_h": Interval(1, B.MAX_FEATURE_DIM),
    "in_w": Interval(1, B.MAX_FEATURE_DIM),
    "out_h": Interval(1, B.MAX_PADDED_DIM),
    "out_w": Interval(1, B.MAX_PADDED_DIM),
    "padded_h": Interval(1, B.MAX_PADDED_DIM),
    "padded_w": Interval(1, B.MAX_PADDED_DIM),
    "in_c": Interval(1, B.MAX_CHANNELS),
    "out_c": Interval(1, B.MAX_CHANNELS),
    "num_filters": Interval(1, B.MAX_CHANNELS),
    "f_h": Interval(1, B.MAX_KERNEL_DIM),
    "f_w": Interval(1, B.MAX_KERNEL_DIM),
    "stride": Interval(1, B.MAX_STRIDE),
    "padding": Interval(0, B.MAX_PADDING),
    # Per-layer aggregates (independent caps, LayerSpec-validated)
    "macs": Interval(0, B.MAX_LAYER_MACS),
    "total_macs": Interval(0, B.MAX_LAYER_MACS),
    "ifmap_elems": Interval(0, B.MAX_TENSOR_ELEMS),
    "ifmap_padded_elems": Interval(0, B.MAX_TENSOR_ELEMS),
    "filter_elems": Interval(0, B.MAX_TENSOR_ELEMS),
    "filter_elems_per_filter": Interval(0, B.MAX_TENSOR_ELEMS),
    "ofmap_elems": Interval(0, B.MAX_TENSOR_ELEMS),
    "total_elems": Interval(0, 3 * B.MAX_TENSOR_ELEMS),
    # Traffic and schedule quantities
    "reads": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "writes": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "total": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "load": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "store": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "total_load": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "total_store": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "resident_load": Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS),
    "count": Interval(1, B.MAX_LAYER_MACS),
    "memory_elems": Interval(0, B.MAX_PLAN_MEMORY_ELEMS),
    # AcceleratorSpec quantities
    "bytes_per_elem": Interval(1, B.MAX_BYTES_PER_ELEM),
    "data_width_bits": Interval(8, B.MAX_DATA_WIDTH_BITS),
    "glb_bytes": Interval(1, B.MAX_GLB_BYTES),
    "glb_elems": Interval(1, B.MAX_GLB_ELEMS),
    "ops_per_cycle": Interval(1, B.MAX_OPS_PER_CYCLE),
    "pe_rows": Interval(1, B.MAX_PE_DIM),
    "pe_cols": Interval(1, B.MAX_PE_DIM),
    "num_pes": Interval(1, B.MAX_PE_DIM * B.MAX_PE_DIM),
    # DramSpec quantities
    "capacity_bytes": Interval(1, B.MAX_DRAM_CAPACITY_BYTES),
    "bank_bytes": Interval(1, B.MAX_DRAM_CAPACITY_BYTES),
    "row_bytes": Interval(1, B.MAX_DRAM_CAPACITY_BYTES),
    "burst_bytes": Interval(1, B.MAX_DRAM_CAPACITY_BYTES),
}

#: Unit-suffix fallback: ``(suffix, interval)`` tried in order when a
#: name has no exact entry.  Generic ``*_elems`` values may be traffic-
#: scale, so the fallback is the loosest count the validators admit.
SUFFIX_INTERVALS: tuple[tuple[str, Interval], ...] = (
    ("_elems", Interval(0, B.MAX_LAYER_TRAFFIC_ELEMS)),
    ("_bytes", Interval(0, _MAX_TRAFFIC_BYTES)),
    ("_bits", Interval(0, 8 * _MAX_TRAFFIC_BYTES)),  # repro: noqa[R004] -- bits-per-byte at the seed-table boundary, not a conversion in planner arithmetic
    ("_macs", Interval(0, B.MAX_LAYER_MACS)),
)

#: Iterable terminal name → bound on the number of items it yields.
LENGTH_BOUNDS: dict[str, int] = {
    "layers": B.MAX_MODEL_LAYERS,
    "plans": B.MAX_GRID_CANDIDATES,
    "schedules": B.MAX_GRID_CANDIDATES,
    "evaluations": B.MAX_GRID_CANDIDATES,
    "policies": B.MAX_GRID_CANDIDATES,
}

#: Name suffixes that declare an exact integer quantity — the values
#: whose arithmetic must stay exact (R072's operands and targets).
INTEGER_UNIT_SUFFIXES: tuple[str, ...] = ("_elems", "_bytes", "_bits", "_count")


def seed_interval(name: str | None) -> Interval | None:
    """Seed interval a terminal name declares, if any."""
    if not name:
        return None
    exact = NAME_INTERVALS.get(name)
    if exact is not None:
        return exact
    lowered = name.lower()
    for suffix, interval in SUFFIX_INTERVALS:
        if lowered.endswith(suffix):
            return interval
    return None


def is_integer_unit_name(name: str | None) -> bool:
    """Whether a name declares an exact integer unit by suffix."""
    if not name:
        return False
    lowered = name.lower()
    return any(lowered.endswith(s) for s in INTEGER_UNIT_SUFFIXES)


def terminal_name(expr: ast.expr) -> str | None:
    """Rightmost identifier of a name/attribute chain, if any."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None
