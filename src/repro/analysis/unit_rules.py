"""Unit-safety rule pack (``R002``–``R004``).

The paper's GLB accounting (Eqs. 1–2, Table 2) mixes three unit systems:
tensor *elements* (tile sizes, budgets), *bytes* (GLB capacity, traffic)
and *bits* (data width), plus *cycles* on the latency side.  The library
convention is suffix-typed names (``glb_bytes``, ``ifmap_elems``,
``data_width_bits``, ``latency_cycles``) with all conversions funneled
through :mod:`repro.arch.units` and ``AcceleratorSpec.bytes_per_elem``.
These rules make the convention checkable: bare ``* 2`` double-buffer
factors, float creep into integer-unit assignments, and raw
``8``/``1024`` conversion factors are flagged at the AST level.
Arithmetic that mixes units is the unit-flow pack's R043
(:mod:`repro.analysis.unitflow`), which sees suffixes and inferred
units alike.

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
from .unitflow import CAST_SIGNATURES, _src, is_plain, name_unit

_FOOTPRINT_NAME = re.compile(r"tile|footprint|resid|memory|buffer")
_CONVERSION_CONSTANTS = frozenset({8, 1024, 1024 * 1024})
_UNITISH_NAME = re.compile(r"byte|bit|elem|kib|mib|size|capacity|glb")
_INT_WRAPPERS = frozenset({"int", "round", "floor", "ceil", "ceil_div", "len"})


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
    """Infer the plain unit a (sub)expression carries from its name.

    The suffix table is :func:`repro.analysis.unitflow.name_unit`'s; a
    call to a unit-cast helper carries the cast's output unit.  Rates
    (``…_per_cycle``) are deliberately unitless here: dividing bytes by
    bytes-per-cycle is legitimate mixed arithmetic.
    """
    if isinstance(node, ast.Call):
        cast = CAST_SIGNATURES.get(_terminal_name(node.func) or "")
        return cast[1] if cast else None
    unit = name_unit(_terminal_name(node))
    return unit if is_plain(unit) else None


class _FunctionStackVisitor(ast.NodeVisitor):
    """Node visitor that tracks the enclosing function-name stack."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.findings: list[Finding] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Push the function name while visiting its body."""
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Treat async functions like regular ones."""
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def in_function_matching(self, pattern: re.Pattern[str]) -> bool:
        """Whether any enclosing function name matches ``pattern``."""
        return any(pattern.search(name) for name in self.stack)


_PREFETCH_CONTEXT = re.compile(r"prefetch|double_buffer")


class _DoubleBufferVisitor(_FunctionStackVisitor):
    """R002: bare ``* 2`` on a footprint-like quantity."""

    def __init__(self, file: SourceFile) -> None:
        super().__init__()
        self.file = file

    def visit_BinOp(self, node: ast.BinOp) -> None:
        """Flag ``2 * footprint`` / ``footprint * 2`` outside helpers."""
        if isinstance(node.op, ast.Mult) and not self.in_function_matching(
            _PREFETCH_CONTEXT
        ):
            for const, other in ((node.left, node.right), (node.right, node.left)):
                if (
                    isinstance(const, ast.Constant)
                    and const.value == 2
                    and not isinstance(const.value, bool)
                ):
                    name = _terminal_name(other)
                    unit = unit_of(other)
                    if (
                        name is not None
                        and (_FOOTPRINT_NAME.search(name.lower()) or unit in ("bytes", "elems"))
                    ):
                        self.findings.append(
                            self.file.finding(
                                "R002",
                                node,
                                f"bare double-buffer factor '* 2' on {_src(other)}; "
                                f"bind '2 if prefetch else 1' to a named factor "
                                f"or use the prefetch helpers",
                            )
                        )
                        break
        self.generic_visit(node)


@rule("R002")
def check_double_buffer_factor(file: SourceFile) -> Iterator[Finding]:
    """Flag unconditional Eq. (2) doublings outside the prefetch helpers."""
    visitor = _DoubleBufferVisitor(file)
    visitor.visit(file.tree)
    yield from visitor.findings


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


class _FloatCreepVisitor(_FunctionStackVisitor):
    """R003: integer-unit names assigned from float-valued expressions."""

    def __init__(self, file: SourceFile) -> None:
        super().__init__()
        self.file = file

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


class _MagicConstantVisitor(_FunctionStackVisitor):
    """R004: raw 8/1024/1048576 conversion factors on unit-ish operands."""

    def __init__(self, file: SourceFile) -> None:
        super().__init__()
        self.file = file

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
