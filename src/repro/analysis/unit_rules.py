"""Unit-safety rule pack (``R003``, ``R004``).

The paper's GLB accounting (Eqs. 1–2, Table 2) mixes three unit systems:
tensor *elements* (tile sizes, budgets), *bytes* (GLB capacity, traffic)
and *bits* (data width), plus *cycles* on the latency side.  The library
convention is suffix-typed names (``glb_bytes``, ``ifmap_elems``,
``data_width_bits``, ``latency_cycles``) with all conversions funneled
through :mod:`repro.arch.units` and ``AcceleratorSpec.bytes_per_elem``.
These rules make the convention checkable: float creep into
integer-unit assignments and raw ``8``/``1024`` conversion factors are
flagged at the AST level.  A byte count used where an element count
belongs, and an unconditional Eq. (2) doubling, are left to the runtime:
the plan digests pinned at 8-, 16- and 32-bit data
(``tests/test_flat_golden.py``) change when either slips in.

Unit inference is deliberately name-based (the repo's suffix convention),
so the rules are heuristics — precise enough to gate CI because the
codebase follows the convention everywhere.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .findings import Finding
from .rules import SourceFile, rule

_CONVERSION_CONSTANTS = frozenset({8, 1024, 1024 * 1024})
_UNITISH_NAME = re.compile(r"byte|bit|elem|kib|mib|size|capacity|glb")
_INT_WRAPPERS = frozenset({"int", "round", "floor", "ceil", "ceil_div", "len"})


#: Name fragment → canonical unit (singular and plural spellings).
_SUFFIX_UNITS: dict[str, str] = {
    "bytes": "bytes",
    "byte": "bytes",
    "bits": "bits",
    "bit": "bits",
    "elems": "elems",
    "elements": "elems",
    "elem": "elems",
    "kib": "kib",
    "kb": "kib",
    "cycles": "cycles",
    "cycle": "cycles",
    "pj": "pj",
    "seconds": "seconds",
}

#: Exact names with a conventional unit but no underscore suffix.
_EXACT_NAMES: dict[str, str] = {"nbytes": "bytes", "nbits": "bits"}

#: Output unit of the :mod:`repro.arch.units` cast helpers (``to_mib``
#: returns a float MiB count, which no suffix names).
_CAST_UNITS: dict[str, str] = {"kib": "bytes", "mib": "bytes", "to_kib": "kib"}


def name_unit(name: str | None) -> str | None:
    """Unit a name declares through the repository's suffix convention.

    Rates (``bytes_per_cycle``) declare none: dividing bytes by
    bytes-per-cycle is legitimate mixed arithmetic.
    """
    if not name:
        return None
    lowered = name.lower()
    if "_per_" in lowered:
        return None
    if lowered in _EXACT_NAMES:
        return _EXACT_NAMES[lowered]
    for suffix, unit in _SUFFIX_UNITS.items():
        if lowered == suffix or lowered.endswith("_" + suffix):
            return unit
    return None


def _src(node: ast.expr) -> str:
    """Compact source rendering of a node for messages."""
    text = ast.unparse(node)
    return text if len(text) <= 40 else text[:37] + "..."


def _terminal_name(node: ast.expr) -> str | None:
    """The identifier a value expression reads from (``a.b.c()`` → ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return None


def unit_of(node: ast.expr) -> str | None:
    """Infer the unit a (sub)expression carries from its name.

    A call to a unit-cast helper carries the cast's output unit.
    """
    if isinstance(node, ast.Call):
        return _CAST_UNITS.get(_terminal_name(node.func) or "")
    return name_unit(_terminal_name(node))


def _contains_float_creep(node: ast.AST) -> bool:
    """Whether an expression uses true division or float literals.

    An ``int()``-style wrapper (``int``/``round``/``ceil_div``/…)
    discharges everything beneath it: the result is integral again.
    """
    if isinstance(node, ast.Call) and _terminal_name(node.func) in _INT_WRAPPERS:
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    return any(_contains_float_creep(child) for child in ast.iter_child_nodes(node))


class _FloatCreepVisitor(ast.NodeVisitor):
    """R003: integer-unit names assigned from float-valued expressions."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        self.findings: list[Finding] = []

    def _check(self, node: ast.AST, target: ast.expr, value: ast.expr | None) -> None:
        if value is None:
            return
        unit = unit_of(target)
        if unit in ("bytes", "elems", "bits") and _contains_float_creep(value):
            self.findings.append(
                self.file.finding(
                    "R003",
                    node,
                    f"integer-unit quantity {_src(target)} assigned from a "
                    f"float-valued expression; use // or ceil_div and keep "
                    f"{unit} exact",
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        """Check every assignment target with a unit suffix."""
        for target in node.targets:
            self._check(node, target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """Check annotated assignments."""
        self._check(node, node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Check augmented assignments (``x_bytes /= …`` and friends)."""
        if isinstance(node.op, ast.Div):
            unit = unit_of(node.target)
            if unit in ("bytes", "elems", "bits"):
                self.findings.append(
                    self.file.finding(
                        "R003",
                        node,
                        f"integer-unit quantity {_src(node.target)} mutated "
                        f"with true division",
                    )
                )
        else:
            self._check(node, node.target, node.value)
        self.generic_visit(node)


@rule("R003")
def check_float_creep(file: SourceFile) -> Iterator[Finding]:
    """Flag float creep into byte/element/bit-typed assignments."""
    visitor = _FloatCreepVisitor(file)
    visitor.visit(file.tree)
    yield from visitor.findings


class _MagicConstantVisitor(ast.NodeVisitor):
    """R004: raw 8/1024/1048576 conversion factors on unit-ish operands."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        self.findings: list[Finding] = []

    def visit_BinOp(self, node: ast.BinOp) -> None:
        """Flag multiplicative use of the conversion constants."""
        if isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv)):
            for const, other in ((node.left, node.right), (node.right, node.left)):
                if (
                    isinstance(const, ast.Constant)
                    and not isinstance(const.value, bool)
                    and const.value in _CONVERSION_CONSTANTS
                ):
                    name = _terminal_name(other)
                    if name is not None and _UNITISH_NAME.search(name.lower()):
                        self.findings.append(
                            self.file.finding(
                                "R004",
                                node,
                                f"magic unit constant {const.value} applied to "
                                f"{_src(other)}; use repro.arch.units "
                                f"(kib/to_kib/…) or spec.bytes_per_elem",
                            )
                        )
                        break
        self.generic_visit(node)


@rule("R004")
def check_magic_unit_constants(file: SourceFile) -> Iterator[Finding]:
    """Flag raw unit-conversion factors bypassing the unit helpers."""
    visitor = _MagicConstantVisitor(file)
    visitor.visit(file.tree)
    yield from visitor.findings
