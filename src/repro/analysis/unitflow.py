"""Interprocedural unit-flow rule pack (``R040``–``R043``, project scope).

A per-file check sees only suffix-typed *names*; a ``_bytes`` value
returned into an ``_elems`` parameter two modules away is invisible to
it.  This pack closes that hole with a small abstract
interpretation over the project call graph
(:mod:`repro.analysis.callgraph`):

Unit lattice
------------
Every expression is mapped into ``bytes | bits | elems | kib | cycles |
pj | seconds | unitless`` plus derived *rates* (``rate:bytes/cycles``,
the inferred unit of ``glb_bytes / latency_cycles``) and *unknown*
(``None``) — no information, never a conflict.  Base facts come from
the repository's suffix convention (``tile_bytes``, ``glb_kb``,
``energy_pj``, ``…_per_cycle``); derived facts come from arithmetic
transfer functions:

* ``+``/``-`` preserve a shared unit (``unitless`` offsets are
  transparent);
* ``elems * X → X`` (a count times a per-element quantity),
  ``X * rate:Y/X → Y``, and the sanctioned literal transitions
  ``bits // 8 → bytes``, ``bytes / 1024 → kib``, ``kib * 1024 →
  bytes``, ``bytes * 8 → bits``;
* ``X / X → unitless``, ``X / rate:X/Y → Y``, and ``bytes // elems →
  rate:bytes/elems`` (a per-element rate, not a conflict);
* the :mod:`repro.arch.units` helpers are *sanctioned casts* with fixed
  signatures (``kib(n) → bytes``, ``to_kib(nbytes) → kib``).

Function summaries (parameter units from names, return unit from the
declared name suffix or the inferred return expressions) are propagated
to a fixpoint over the call graph, then four checks run:

* **R040** — a call-site argument whose inferred unit contradicts the
  parameter's declared unit, casts included: a sanctioned cast applied
  to the wrong input unit (``to_kib(n_elems)``, ``kib(x_bytes)``) is a
  call-site mismatch like any other;
* **R041** — a function whose name declares a unit but whose return
  expression infers a different one;
* **R042** — an assignment binding a unit-suffixed name to a value of a
  different inferred unit;
* **R043** — additive/comparison unit mixes anywhere in a file
  (function, class and module bodies, lambdas included), whether the
  units come from name suffixes or only from inference.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .callgraph import CallGraph, FunctionInfo, own_nodes
from .findings import Finding
from .rules import Project, SourceFile, rule


def terminal_name(expr: ast.expr) -> str | None:
    """Rightmost identifier of a name/attribute chain, if any."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


#: Plain units of the lattice (rates are ``"rate:<num>/<den>"`` strings).
PLAIN_UNITS = ("bytes", "bits", "elems", "kib", "cycles", "pj", "seconds")

#: Name fragment → canonical plain unit (singular and plural spellings).
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

#: Sanctioned casts: helper name → (required input unit, output unit).
#: ``kib(n)`` takes a KiB *count* (unknown input is fine) and returns
#: bytes; ``to_kib(nbytes)`` takes bytes and returns KiB.
CAST_SIGNATURES: dict[str, tuple[str | None, str | None]] = {
    "kib": (None, "bytes"),
    "mib": (None, "bytes"),
    "to_kib": ("bytes", "kib"),
    "to_mib": ("bytes", None),
}

#: Wrappers that preserve the unit of their first argument.
_UNIT_PRESERVING = frozenset({"int", "round", "floor", "ceil", "abs", "float"})

#: Reductions whose result joins the units of their arguments.
_UNIT_JOINING = frozenset({"min", "max", "sum"})


def _norm_fragment(fragment: str) -> str | None:
    """Canonical plain unit of one name fragment, if any."""
    return _SUFFIX_UNITS.get(fragment)


def name_unit(name: str | None) -> str | None:
    """Unit a name declares through the repository's suffix convention.

    Returns a plain unit, a ``rate:num/den`` string for ``…_per_…``
    names (``bytes_per_cycle`` → ``rate:bytes/cycles``), or ``None``.
    """
    if not name:
        return None
    lowered = name.lower()
    if "_per_" in lowered:
        num_part, _, den_part = lowered.partition("_per_")
        num = name_unit(num_part)
        den = _norm_fragment(den_part.split("_")[0])
        if num in PLAIN_UNITS and den is not None:
            return f"rate:{num}/{den}"
        return None
    if lowered in _EXACT_NAMES:
        return _EXACT_NAMES[lowered]
    for suffix, unit in _SUFFIX_UNITS.items():
        if lowered == suffix or lowered.endswith("_" + suffix):
            return unit
    return None


def is_plain(unit: str | None) -> bool:
    """Whether a lattice value is a concrete plain unit."""
    return unit in PLAIN_UNITS


def _rate_parts(unit: str | None) -> tuple[str, str] | None:
    if unit is None or not unit.startswith("rate:"):
        return None
    num, _, den = unit[len("rate:") :].partition("/")
    return num, den


def join_units(left: str | None, right: str | None) -> str | None:
    """Additive join: shared unit, transparent unitless, else unknown."""
    if left == right:
        return left
    if left is None or left == "unitless":
        return right
    if right is None or right == "unitless":
        return left
    return None


def multiply_units(left: str | None, right: str | None) -> str | None:
    """Multiplicative transfer (count semantics for ``elems``)."""
    for a, b in ((left, right), (right, left)):
        rate = _rate_parts(a)
        if rate is not None and b == rate[1]:
            return rate[0]  # X * rate:Y/X → Y
    if left == "unitless" and right == "unitless":
        return "unitless"
    if left in ("unitless", None) or right in ("unitless", None):
        other = right if left in ("unitless", None) else left
        if other == "elems":
            # count * scalar is the idiomatic elems→bytes conversion
            # (n_elems * dtype_size); the product's unit is unknowable.
            return None
        return other if is_plain(other) else None
    if left == "elems" and is_plain(right):
        return right if right != "elems" else "elems"
    if right == "elems" and is_plain(left):
        return left
    return None


def divide_units(left: str | None, right: str | None) -> str | None:
    """Division transfer: same-unit → unitless, per-unit → rate."""
    if left is None:
        return None
    if left == right:
        return "unitless"
    rate = _rate_parts(right)
    if rate is not None and left == rate[0]:
        return rate[1]  # X / rate:X/Y → Y
    if right is None:
        return None  # unknown denominator: could be a normalizer
    if right == "unitless":
        return left
    if is_plain(left) and is_plain(right):
        return f"rate:{left}/{right}"
    return None


def _const_value(node: ast.expr) -> int | float | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return node.value
    return None


@dataclass
class Summary:
    """Interprocedural facts about one function."""

    info: FunctionInfo
    param_units: dict[str, str | None] = field(default_factory=dict)
    declared_unit: str | None = None
    return_unit: str | None = None

    @property
    def effective_return(self) -> str | None:
        """Declared unit when present, else the inferred return unit."""
        return self.declared_unit or self.return_unit


def _is_cast(info: FunctionInfo) -> bool:
    """Whether a function is one of the sanctioned unit-cast helpers."""
    return info.module.endswith("arch.units") and info.name in CAST_SIGNATURES


def _own_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Statements of a function body in source order, nested defs excluded."""
    stack: list[ast.stmt] = list(
        reversed(getattr(func, "body", []))
    )
    ordered: list[ast.stmt] = []
    while stack:
        stmt = stack.pop()
        ordered.append(stmt)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for block in ("body", "orelse", "finalbody"):
            stack.extend(reversed(getattr(stmt, block, [])))
        for handler in getattr(stmt, "handlers", []):
            stack.extend(reversed(handler.body))
    yield from ordered


class UnitFlow:
    """Shared unit-inference state for the R040–R043 checkers.

    Built once per project (cached on the call graph object) — the
    summaries are propagated to a fixpoint before any checker runs.
    """

    #: Fixpoint passes: summaries feed call expressions feed summaries.
    _PASSES = 3

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        #: id(Call node) → resolved callee qualname.
        self.call_targets: dict[int, str] = {}
        for sites in graph.callsites.values():
            for callee, call, _file in sites:
                self.call_targets[id(call)] = callee
        self.summaries: dict[str, Summary] = {
            qualname: self._base_summary(info)
            for qualname, info in graph.functions.items()
        }
        for _ in range(self._PASSES):
            changed = False
            for qualname, info in graph.functions.items():
                inferred = self._infer_return(info)
                if inferred != self.summaries[qualname].return_unit:
                    self.summaries[qualname].return_unit = inferred
                    changed = True
            if not changed:
                break

    # -- summaries -------------------------------------------------------

    def _base_summary(self, info: FunctionInfo) -> Summary:
        params = {name: name_unit(name) for name in info.param_names()}
        declared = name_unit(info.name)
        if not is_plain(declared) or _is_cast(info):
            declared = CAST_SIGNATURES[info.name][1] if _is_cast(info) else None
        return Summary(info=info, param_units=params, declared_unit=declared)

    def _infer_return(self, info: FunctionInfo) -> str | None:
        env = self._initial_env(info)
        unit: str | None = None
        for stmt in _own_statements(info.node):
            self._bind_stmt(stmt, env)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                unit = join_units(unit, self.infer(stmt.value, env))
        return unit

    def _initial_env(self, info: FunctionInfo) -> dict[str, str | None]:
        return {
            name: unit
            for name, unit in self.summaries[info.qualname].param_units.items()
            if unit is not None
        }

    def _bind_stmt(self, stmt: ast.stmt, env: dict[str, str | None]) -> None:
        """Fold one assignment statement into the local unit environment."""
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        inferred = self.infer(value, env)
        for target in targets:
            if isinstance(target, ast.Name):
                declared = name_unit(target.id)
                env[target.id] = declared if declared is not None else inferred

    # -- expression inference --------------------------------------------

    def infer(
        self, node: ast.expr, env: dict[str, str | None]
    ) -> str | None:
        """Lattice unit of an expression under a local environment."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return name_unit(node.id)
        if isinstance(node, ast.Attribute):
            return name_unit(node.attr)
        if isinstance(node, ast.Constant):
            return "unitless" if _const_value(node) is not None else None
        if isinstance(node, ast.Call):
            return self._infer_call(node, env)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand, env)
        if isinstance(node, ast.IfExp):
            return join_units(
                self.infer(node.body, env), self.infer(node.orelse, env)
            )
        if isinstance(node, ast.BoolOp):
            unit: str | None = None
            for value in node.values:
                unit = join_units(unit, self.infer(value, env))
            return unit
        if isinstance(node, ast.NamedExpr):
            return self.infer(node.value, env)
        return None

    def _infer_call(
        self, node: ast.Call, env: dict[str, str | None]
    ) -> str | None:
        name = terminal_name(node.func)
        callee = self.call_targets.get(id(node))
        if callee is not None:
            return self.summaries[callee].effective_return
        if name in CAST_SIGNATURES:
            return CAST_SIGNATURES[name][1]
        if name == "ceil_div" and len(node.args) == 2:
            return divide_units(
                self.infer(node.args[0], env), self.infer(node.args[1], env)
            )
        if name in _UNIT_PRESERVING and node.args:
            return self.infer(node.args[0], env)
        if name in _UNIT_JOINING and node.args:
            unit: str | None = None
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    return None
                unit = join_units(unit, self.infer(arg, env))
            return unit
        return None

    def _infer_binop(
        self, node: ast.BinOp, env: dict[str, str | None]
    ) -> str | None:
        left = self.infer(node.left, env)
        right = self.infer(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return join_units(left, right)
        if isinstance(node.op, ast.Mult):
            for a_unit, b_node in ((left, node.right), (right, node.left)):
                const = _const_value(b_node)
                if a_unit == "kib" and const == 1024:
                    return "bytes"  # sanctioned KiB → bytes transition
                if a_unit == "bytes" and const == 8:
                    return "bits"  # sanctioned bytes → bits transition
            return multiply_units(left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            const = _const_value(node.right)
            if left == "bits" and const == 8:
                return "bytes"  # the canonical data_width_bits // 8
            if left == "bytes" and const == 1024:
                return "kib"
            return divide_units(left, right)
        if isinstance(node.op, ast.Mod):
            return left
        return None


def unitflow_for(project: Project) -> UnitFlow:
    """The project's unit-flow state, computed once and cached."""
    graph = project.callgraph()
    cached: UnitFlow | None = getattr(graph, "_unitflow_cache", None)
    if cached is None:
        cached = UnitFlow(project, graph)
        setattr(graph, "_unitflow_cache", cached)
    return cached


def _describe(unit: str | None) -> str:
    return unit if unit is not None else "unknown"


def _src(node: ast.expr) -> str:
    """Compact source rendering of a node for messages."""
    text = ast.unparse(node)
    return text if len(text) <= 40 else text[:37] + "..."


# ----------------------------------------------------------------------
# R040 — call-site unit mismatch
# ----------------------------------------------------------------------


def _call_bindings(
    call: ast.Call, callee: FunctionInfo
) -> Iterator[tuple[str, ast.expr]]:
    """(parameter name, argument expression) pairs of one call site."""
    params = callee.param_names()
    offset = 0
    if (
        callee.is_method
        and not callee.is_static
        and params
        and params[0] in ("self", "cls")
    ):
        offset = 1
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        index = offset + i
        if index < len(params):
            yield params[index], arg
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in params:
            yield kw.arg, kw.value


@rule("R040", scope="project")
def check_call_site_units(project: Project) -> Iterator[Finding]:
    """Flag arguments whose inferred unit contradicts the parameter's.

    A cast's input unit comes from :data:`CAST_SIGNATURES`; ``kib``/``mib``
    take a bare count, so a bytes argument double-converts.
    """
    flow = unitflow_for(project)
    for caller, sites in sorted(flow.graph.callsites.items()):
        caller_info = flow.graph.functions.get(caller)
        env = flow._initial_env(caller_info) if caller_info else {}
        if caller_info is not None:
            for stmt in _own_statements(caller_info.node):
                flow._bind_stmt(stmt, env)
        for callee_name, call, file in sites:
            callee = flow.graph.functions[callee_name]
            cast = _is_cast(callee)
            for param, arg in _call_bindings(call, callee):
                if cast:
                    declared = CAST_SIGNATURES[callee.name][0]
                else:
                    declared = flow.summaries[callee_name].param_units.get(param)
                    if not is_plain(declared):
                        continue
                inferred = flow.infer(arg, env)
                if cast and declared is None and inferred == "bytes":
                    yield file.finding(
                        "R040",
                        call,
                        f"{callee.name}() takes a KiB/MiB count, but "
                        f"{_src(arg)} already carries bytes — this "
                        f"double-converts",
                    )
                elif is_plain(declared) and is_plain(inferred) and inferred != declared:
                    yield file.finding(
                        "R040",
                        call,
                        f"argument {_src(arg)} carries {_describe(inferred)} "
                        f"but parameter '{param}' of {callee_name}() "
                        f"declares {_describe(declared)}; convert through "
                        f"repro.arch.units at the boundary",
                    )


# ----------------------------------------------------------------------
# R041 — return-boundary unit mismatch
# ----------------------------------------------------------------------


@rule("R041", scope="project")
def check_return_units(project: Project) -> Iterator[Finding]:
    """Flag returns whose inferred unit contradicts the declared name."""
    flow = unitflow_for(project)
    for qualname, info in sorted(flow.graph.functions.items()):
        if _is_cast(info):
            continue
        declared = name_unit(info.name)
        if not is_plain(declared):
            continue
        env = flow._initial_env(info)
        for stmt in _own_statements(info.node):
            flow._bind_stmt(stmt, env)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                inferred = flow.infer(stmt.value, env)
                if is_plain(inferred) and inferred != declared:
                    yield info.file.finding(
                        "R041",
                        stmt,
                        f"{qualname}() declares {_describe(declared)} by "
                        f"name but returns {_describe(inferred)} "
                        f"({_src(stmt.value)}); every caller's arithmetic "
                        f"is now mislabeled",
                    )


# ----------------------------------------------------------------------
# R042 — cross-unit assignment through dataflow
# ----------------------------------------------------------------------


@rule("R042", scope="project")
def check_assignment_units(project: Project) -> Iterator[Finding]:
    """Flag unit-suffixed names bound to values of a different unit."""
    flow = unitflow_for(project)
    for _qualname, info in sorted(flow.graph.functions.items()):
        if _is_cast(info):
            continue
        env = flow._initial_env(info)
        for stmt in _own_statements(info.node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is not None:
                inferred = flow.infer(value, env)
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    declared = name_unit(target.id)
                    if (
                        is_plain(declared)
                        and is_plain(inferred)
                        and inferred != declared
                    ):
                        yield info.file.finding(
                            "R042",
                            stmt,
                            f"'{target.id}' declares {_describe(declared)} "
                            f"but is assigned {_describe(inferred)} "
                            f"({_src(value)}); the mislabeled binding "
                            f"defeats every downstream unit check",
                        )
            flow._bind_stmt(stmt, env)


# ----------------------------------------------------------------------
# R043 — interprocedural unit mix in arithmetic
# ----------------------------------------------------------------------


def _unit_scopes(
    flow: UnitFlow,
) -> Iterator[tuple[SourceFile, ast.AST, dict[str, str | None]]]:
    """(file, scope node, initial env) for every function, class and module.

    Functions start from their parameter units; module and class bodies
    start empty.  Cast helpers are skipped — their bodies *are* the
    sanctioned unit transitions.
    """
    for _qualname, info in sorted(flow.graph.functions.items()):
        if not _is_cast(info):
            yield info.file, info.node, flow._initial_env(info)
    for file in flow.project.files:
        yield file, file.tree, {}
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                yield file, node, {}


@rule("R043", scope="project")
def check_unit_mix(project: Project) -> Iterator[Finding]:
    """Flag additive arithmetic/comparisons mixing units.

    Every scope of every file is checked — function, class and module
    bodies, lambdas included — with units taken from name suffixes and
    from interprocedural inference alike.
    """
    flow = unitflow_for(project)
    for file, scope, env in _unit_scopes(flow):
        for stmt in _own_statements(scope):
            flow._bind_stmt(stmt, env)
        for node in own_nodes(scope):
            pairs: list[tuple[ast.expr, ast.expr]] = []
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                pairs.append((node.left, node.right))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                        pairs.append((left, right))
            for left, right in pairs:
                lu, ru = flow.infer(left, env), flow.infer(right, env)
                if is_plain(lu) and is_plain(ru) and lu != ru:
                    yield file.finding(
                        "R043",
                        node,
                        f"mixes {_describe(lu)} ({_src(left)}) with "
                        f"{_describe(ru)} ({_src(right)}); convert through "
                        f"repro.arch.units first",
                    )
