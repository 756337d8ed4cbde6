"""Value-range / overflow prover rule pack (``R070``–``R074``, project scope).

An interval abstract interpreter (:mod:`repro.analysis.interval`) over
the estimator and tile-search arithmetic.  Every function body is interpreted
once: locals carry :class:`~repro.analysis.interval.Abstract` values
seeded from the declared spec bounds (:mod:`repro.arch.bounds`), NumPy
array creations with explicit ``dtype=`` keywords enter the fixed-width
world, and the transfer functions over-approximate — so a clean run is a
*proof* that the ``int64`` closed forms cannot wrap for any spec/model
the runtime validators accept.

Rules
-----
* **R070** — an ``int64`` NumPy intermediate whose worst-case interval
  reaches ``2**63`` (or cannot be bounded by a growing operation on
  bounded operands): the proof failed; the finding carries the offending
  expression and its worst-case bound.
* **R072** — an integer-unit quantity whose bound exceeds ``2**53``
  flows through float64 (true division, ``float()``) and is then
  *treated as exact again* — bound to an integer-unit name or rounded
  back with ``int(...)``: above ``2**53`` float64 cannot represent
  every integer, so the exactness the label promises is silently lost.
  (A float used as a float — a ratio, a percentage — is fine and does
  not fire.)
* **R073** — a binary NumPy operation mixes two arrays of *declared*
  conflicting dtypes (``dtype=np.int64`` meets ``dtype=np.float64``):
  the promotion rules decide the result dtype silently.  Both dtypes
  must come from explicit ``dtype=``/``astype`` declarations; inferred
  families never fire.
* **R074** — a division whose divisor is an integer-unit quantity whose
  interval includes zero, with no guard (``if``/``assert``/ternary test
  or ``max(1, …)``) in the function: validated spec fields are seeded
  positive, so this only fires on derived divisors that genuinely can
  be zero.

Like the unit-flow pack, interprocedural facts travel through function
summaries propagated to a fixpoint over the call graph — a helper whose
return value the interpreter can bound tightens every caller's proof.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from .callgraph import CallGraph, FunctionInfo
from .findings import Finding
from .interval import (
    FLOAT64_EXACT_LIMIT,
    INF,
    INT64_LIMIT,
    NONNEG,
    TOP,
    Abstract,
    Interval,
    LENGTH_BOUNDS,
    is_integer_unit_name,
    join_abstract,
    seed_interval,
    terminal_name,
)
from .rules import Project, SourceFile, rule
from .unitflow import _own_statements, _walk_no_defs

#: ``dtype=`` keyword values (terminal names) → dtype family.
_DTYPE_FAMILIES: dict[str, str] = {
    "int64": "int",
    "int32": "int",
    "int16": "int",
    "int8": "int",
    "intp": "int",
    "uint64": "int",
    "int_": "int",
    "float64": "float",
    "float32": "float",
    "float16": "float",
    "float_": "float",
    "bool_": "bool",
    "bool": "bool",
}

#: NumPy array constructors whose first argument supplies the elements.
_ARRAY_FROM_DATA = frozenset({"array", "asarray"})

#: NumPy array constructors that fill with a known constant.
_ARRAY_FILLED = {"zeros": 0, "ones": 1}


def _dtype_family(expr: ast.expr) -> str | None:
    """Dtype family a ``dtype=`` keyword value declares, if known."""
    name = terminal_name(expr)
    if name is not None:
        return _DTYPE_FAMILIES.get(name)
    if isinstance(expr, ast.Constant) and expr.value in (int, float, bool):
        return None
    return None


def _call_dtype(call: ast.Call) -> str | None:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return _dtype_family(kw.value)
    return None


@dataclass(frozen=True)
class _Hit:
    """One rule hit found while interpreting a function."""

    kind: str  # "overflow" | "precision" | "dtype" | "divzero"
    file: SourceFile
    node: ast.AST
    qualname: str
    message: str


class RangeFlow:
    """Shared interval-interpretation state for the R070–R074 checkers."""

    #: Fixpoint passes over function summaries (callee bounds feed
    #: caller expressions feed summaries).
    _PASSES = 2

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        #: id(Call node) → resolved callee qualname.
        self.call_targets: dict[int, str] = {}
        for sites in graph.callsites.values():
            for callee, call, _file in sites:
                self.call_targets[id(call)] = callee
        #: qualname → summarized return value.
        self.summaries: dict[str, Abstract] = {}
        self.hits: list[_Hit] = []
        for _ in range(self._PASSES):
            changed = False
            self.hits = []
            for qualname, info in sorted(graph.functions.items()):
                summary = self._interpret(qualname, info)
                if self.summaries.get(qualname) != summary:
                    self.summaries[qualname] = summary
                    changed = True
            if not changed:
                break

    # -- function interpretation -----------------------------------------

    def _interpret(self, qualname: str, info: FunctionInfo) -> Abstract:
        """Interpret one function; record hits; return its summary."""
        env: dict[str, Abstract] = {}
        for param in info.param_names():
            seeded = seed_interval(param)
            if seeded is not None:
                env[param] = Abstract.of(seeded)
        guarded = _guarded_names(info.node)
        returned: Abstract | None = None
        for stmt in _own_statements(info.node):
            self._check_stmt(stmt, env, guarded, info, qualname)
            self._bind_stmt(stmt, env, info, qualname)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                value = self._value_of(stmt.value, env, info, qualname)
                if isinstance(value, Abstract):
                    returned = (
                        value
                        if returned is None
                        else join_abstract(returned, value)
                    )
        if returned is None or returned.interval.is_top:
            declared = seed_interval(info.name)
            if declared is not None:
                return Abstract.of(declared)
        return returned if returned is not None else TOP

    def _bind_stmt(
        self,
        stmt: ast.stmt,
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
    ) -> None:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AugAssign):
            # ``arr[...] -= x`` / ``name += x``: widen the binding.
            current = self._value_of(stmt.target, env, info, qualname)
            delta = self._value_of(stmt.value, env, info, qualname)
            combined = self._binop_value(stmt.op, current, delta, stmt, env, info, qualname)
            root = stmt.target
            while isinstance(root, ast.Subscript):
                root = root.value
            if isinstance(root, ast.Name) and isinstance(combined, Abstract):
                base = env.get(root.id)
                if base is not None:
                    env[root.id] = base.with_interval(
                        base.interval.join(combined.interval)
                    )
                else:
                    env[root.id] = combined
            return
        if value is None:
            return
        inferred = self._value_of(value, env, info, qualname)
        for target in targets:
            if isinstance(target, ast.Name) and isinstance(inferred, Abstract):
                env[target.id] = inferred
            elif isinstance(target, ast.Tuple) and isinstance(inferred, tuple):
                for sub, part in zip(target.elts, inferred):
                    if isinstance(sub, ast.Name) and isinstance(part, Abstract):
                        env[sub.id] = part

    # -- expression abstraction ------------------------------------------

    def _value_of(
        self,
        node: ast.expr,
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
    ) -> "Abstract | tuple[Abstract, ...]":
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            seeded = seed_interval(node.id)
            return Abstract.of(seeded) if seeded is not None else TOP
        if isinstance(node, ast.Attribute):
            seeded = seed_interval(node.attr)
            return Abstract.of(seeded) if seeded is not None else TOP
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Abstract(interval=Interval(0, 1), dtype="bool")
            if isinstance(node.value, int):
                return Abstract(interval=Interval.const(node.value), dtype="int")
            if isinstance(node.value, float):
                return Abstract(
                    interval=Interval.const(node.value), dtype="float"
                )
            return TOP
        if isinstance(node, ast.Tuple):
            parts = []
            for elt in node.elts:
                part = self._value_of(elt, env, info, qualname)
                parts.append(part if isinstance(part, Abstract) else TOP)
            return tuple(parts)
        if isinstance(node, ast.Call):
            return self._call_value(node, env, info, qualname)
        if isinstance(node, ast.BinOp):
            left = self._value_of(node.left, env, info, qualname)
            right = self._value_of(node.right, env, info, qualname)
            return self._binop_value(node.op, left, right, node, env, info, qualname)
        if isinstance(node, ast.UnaryOp):
            operand = self._value_of(node.operand, env, info, qualname)
            if isinstance(operand, Abstract) and isinstance(node.op, ast.USub):
                return operand.with_interval(operand.interval.neg())
            return operand if isinstance(operand, Abstract) else TOP
        if isinstance(node, ast.IfExp):
            left = self._value_of(node.body, env, info, qualname)
            right = self._value_of(node.orelse, env, info, qualname)
            if isinstance(left, Abstract) and isinstance(right, Abstract):
                return join_abstract(left, right)
            return TOP
        if isinstance(node, ast.Subscript):
            base = self._value_of(node.value, env, info, qualname)
            if isinstance(base, Abstract):
                # Element or slice of an array: same interval and dtype.
                return base
            return TOP
        if isinstance(node, ast.NamedExpr):
            return self._value_of(node.value, env, info, qualname)
        if isinstance(node, (ast.List, ast.ListComp)):
            return self._list_value(node, env, info, qualname)
        return TOP

    def _list_value(
        self,
        node: "ast.List | ast.ListComp",
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
    ) -> Abstract:
        """Abstract a list literal / comprehension (an array's payload)."""
        if isinstance(node, ast.List):
            elems: Abstract | None = None
            for elt in node.elts:
                value = self._value_of(elt, env, info, qualname)
                if isinstance(value, Abstract):
                    elems = value if elems is None else join_abstract(elems, value)
            if elems is None:
                return Abstract(interval=Interval.top(), length_hi=len(node.elts))
            return Abstract(
                interval=elems.interval,
                dtype=elems.dtype,
                length_hi=len(node.elts),
                is_array=True,
            )
        gen = node.generators[0]
        length_hi: int | float = INF
        iter_name = terminal_name(gen.iter)
        if iter_name is not None and iter_name in LENGTH_BOUNDS:
            length_hi = LENGTH_BOUNDS[iter_name]
        elt = self._value_of(node.elt, env, info, qualname)
        if not isinstance(elt, Abstract):
            elt = TOP
        return Abstract(
            interval=elt.interval,
            dtype=elt.dtype,
            length_hi=length_hi,
            is_array=True,
        )

    def _call_value(
        self,
        node: ast.Call,
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
    ) -> "Abstract | tuple[Abstract, ...]":
        name = terminal_name(node.func)
        # NumPy constructors with declared dtypes enter the fixed world.
        if name in _ARRAY_FROM_DATA and node.args:
            payload = self._value_of(node.args[0], env, info, qualname)
            if not isinstance(payload, Abstract):
                payload = TOP
            declared = _call_dtype(node)
            dtype = declared or payload.dtype
            value = Abstract(
                interval=payload.interval,
                dtype=dtype,
                dtype_declared=declared is not None or payload.dtype_declared,
                is_np=True,
                is_array=True,
                length_hi=payload.length_hi,
            )
            return self._check_int64(value, node, env, info, qualname, creation=True)
        if name in _ARRAY_FILLED:
            fill = _ARRAY_FILLED[name]
            assert isinstance(name, str)
            declared = _call_dtype(node)
            return Abstract(
                interval=Interval.const(fill),
                dtype=declared,
                dtype_declared=declared is not None,
                is_np=True,
                is_array=True,
            )
        if name == "full" and len(node.args) >= 2:
            fill_value = self._value_of(node.args[1], env, info, qualname)
            interval = (
                fill_value.interval
                if isinstance(fill_value, Abstract)
                else Interval.top()
            )
            declared = _call_dtype(node)
            return Abstract(
                interval=interval,
                dtype=declared,
                dtype_declared=declared is not None,
                is_np=True,
                is_array=True,
            )
        if name in ("maximum", "minimum") and len(node.args) == 2:
            left = self._value_of(node.args[0], env, info, qualname)
            right = self._value_of(node.args[1], env, info, qualname)
            if isinstance(left, Abstract) and isinstance(right, Abstract):
                joined = join_abstract(left, right)
                interval = (
                    left.interval.max_with(right.interval)
                    if name == "maximum"
                    else left.interval.min_with(right.interval)
                )
                return joined.with_interval(interval)
            return TOP
        if name == "where" and len(node.args) == 3:
            left = self._value_of(node.args[1], env, info, qualname)
            right = self._value_of(node.args[2], env, info, qualname)
            if isinstance(left, Abstract) and isinstance(right, Abstract):
                return join_abstract(left, right)
            return TOP
        if name == "sum" and isinstance(node.func, ast.Attribute) and not node.args:
            base = self._value_of(node.func.value, env, info, qualname)
            if isinstance(base, Abstract):
                summed = replace_array_sum(base)
                return self._check_int64(summed, node, env, info, qualname)
            return TOP
        if name == "copy" and isinstance(node.func, ast.Attribute):
            base = self._value_of(node.func.value, env, info, qualname)
            return base if isinstance(base, Abstract) else TOP
        if name == "astype" and isinstance(node.func, ast.Attribute) and node.args:
            base = self._value_of(node.func.value, env, info, qualname)
            family = _dtype_family(node.args[0])
            if isinstance(base, Abstract):
                return Abstract(
                    interval=base.interval,
                    dtype=family,
                    dtype_declared=family is not None,
                    is_np=True,
                    is_array=base.is_array,
                    length_hi=base.length_hi,
                )
            return TOP
        if name == "int" and node.args:
            base = self._value_of(node.args[0], env, info, qualname)
            if isinstance(base, Abstract):
                # ``int(<float expr>)`` treats the float as an exact
                # integer again — the R072 precision trap closes here.
                if base.dtype == "float":
                    big = self._big_exact_operand(node.args[0], env, info, qualname)
                    if big is not None:
                        self._check_precision(
                            big[0], big[1], node, info, qualname,
                            context="an int(...) round-trip",
                        )
                # Back to Python's arbitrary-precision world.
                return Abstract(interval=base.interval, dtype="int")
            return TOP
        if name == "float" and node.args:
            base = self._value_of(node.args[0], env, info, qualname)
            if isinstance(base, Abstract):
                return Abstract(interval=base.interval, dtype="float")
            return TOP
        if name in ("len",):
            return Abstract(interval=NONNEG, dtype="int")
        if name in ("min", "max") and node.args:
            joined: Abstract | None = None
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    return TOP
                value = self._value_of(arg, env, info, qualname)
                if isinstance(value, Abstract):
                    joined = (
                        value if joined is None else join_abstract(joined, value)
                    )
            return joined if joined is not None else TOP
        if name == "abs" and node.args:
            base = self._value_of(node.args[0], env, info, qualname)
            if isinstance(base, Abstract):
                hi = max(abs(base.interval.lo), abs(base.interval.hi))
                return base.with_interval(Interval(0, hi))
            return TOP
        callee = self.call_targets.get(id(node))
        if callee is not None and callee in self.summaries:
            return self.summaries[callee]
        # Unresolved call: fall back to the declared suffix of its name.
        seeded = seed_interval(name)
        if seeded is not None:
            return Abstract.of(seeded)
        return TOP

    def _binop_value(
        self,
        op: ast.operator,
        left: "Abstract | tuple[Abstract, ...]",
        right: "Abstract | tuple[Abstract, ...]",
        node: ast.AST,
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
    ) -> Abstract:
        if not isinstance(left, Abstract) or not isinstance(right, Abstract):
            return TOP
        li, ri = left.interval, right.interval
        if isinstance(op, ast.Add):
            interval = li.add(ri)
        elif isinstance(op, ast.Sub):
            interval = li.sub(ri)
        elif isinstance(op, ast.Mult):
            interval = li.mul(ri)
        elif isinstance(op, ast.FloorDiv):
            interval = li.floordiv(ri)
        elif isinstance(op, ast.Div):
            interval = li.floordiv(ri)  # magnitude bound is the same hull
        elif isinstance(op, ast.Mod):
            interval = ri.join(ri.neg()) if ri.bounded else Interval.top()
        elif isinstance(op, ast.Pow):
            interval = Interval.top()
        else:
            interval = Interval.top()
        is_np = left.is_np or right.is_np
        is_array = left.is_array or right.is_array
        if isinstance(op, ast.Div):
            dtype: str | None = "float"
        elif left.dtype == right.dtype:
            dtype = left.dtype
        elif left.dtype is None or right.dtype is None:
            dtype = left.dtype or right.dtype
        else:
            dtype = "float" if "float" in (left.dtype, right.dtype) else None
        result = Abstract(
            interval=interval,
            dtype=dtype,
            dtype_declared=left.dtype_declared
            and right.dtype_declared
            and not isinstance(op, ast.Div),
            is_np=is_np,
            is_array=is_array,
            length_hi=min(left.length_hi, right.length_hi)
            if is_array
            else INF,
            tainted=left.tainted or right.tainted,
        )
        if is_np and dtype == "int" and not isinstance(op, ast.Div):
            growing = isinstance(op, (ast.Mult, ast.Pow))
            result = self._check_int64(
                result,
                node,
                env,
                info,
                qualname,
                growing_on_bounded=growing
                and (li.bounded or ri.bounded)
                and not (li.bounded and ri.bounded),
            )
        return result

    # -- hit recording ----------------------------------------------------

    def _check_int64(
        self,
        value: Abstract,
        node: ast.AST,
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
        *,
        creation: bool = False,
        growing_on_bounded: bool = False,
    ) -> Abstract:
        """Record an R070 hit when an int64 value's proof fails."""
        if value.dtype != "int" or not value.is_np or value.tainted:
            return value
        interval = value.interval
        overflow = (
            interval.hi >= INT64_LIMIT or interval.lo <= -INT64_LIMIT
        ) and interval.bounded
        unprovable = growing_on_bounded and not interval.bounded
        if creation and not interval.bounded:
            # Arrays built from entirely unknown data: provenance is
            # outside the closed forms; the arithmetic rules take over
            # once a bounded operand meets them.
            return value
        if overflow or unprovable:
            bound = interval.describe()
            reason = (
                f"worst-case bound {bound} reaches 2**63"
                if overflow
                else "its worst case cannot be bounded over the declared spec space"
            )
            self.hits.append(
                _Hit(
                    kind="overflow",
                    file=info.file,
                    node=node,
                    qualname=qualname,
                    message=(
                        f"int64 intermediate {_src(node)} in {qualname}() is "
                        f"not provably below 2**63: {reason}; NumPy int64 "
                        f"wraps silently, so tighten repro.arch.bounds or "
                        f"restructure the expression"
                    ),
                )
            )
            return replace_tainted(value)
        return value

    def _big_exact_operand(
        self,
        expr: ast.expr,
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
    ) -> "tuple[str, Interval] | None":
        """An integer-unit operand in ``expr`` provably wider than 2**53."""
        for node in _walk_no_defs(expr):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            name = terminal_name(node)
            if not is_integer_unit_name(name):
                continue
            value = self._value_of(node, env, info, qualname)
            if (
                isinstance(value, Abstract)
                and FLOAT64_EXACT_LIMIT < value.interval.hi < INF
            ):
                assert name is not None
                return name, value.interval
        return None

    def _check_precision(
        self,
        name: str,
        interval: Interval,
        node: ast.AST,
        info: FunctionInfo,
        qualname: str,
        *,
        context: str,
    ) -> None:
        """Record an R072 hit: a >2**53 exact quantity treated as exact
        again after passing through float64."""
        self.hits.append(
            _Hit(
                kind="precision",
                file=info.file,
                node=node,
                qualname=qualname,
                message=(
                    f"integer quantity '{name}' (bound {interval.describe()}) "
                    f"passes through float64 and is treated as exact again "
                    f"via {context} in {qualname}(); above 2**53 float64 "
                    f"stops representing every integer — keep the "
                    f"computation in exact integer arithmetic"
                ),
            )
        )

    def _check_stmt(
        self,
        stmt: ast.stmt,
        env: dict[str, Abstract],
        guarded: set[str],
        info: FunctionInfo,
        qualname: str,
    ) -> None:
        """Record precision/dtype/divzero hits in one statement."""
        # R072: a lossy float bound back under an integer-unit name.
        # (Float creep into such a name — true division, float literals —
        # is R003's finding.)
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is not None:
            inferred = self._value_of(value, env, info, qualname)
            if isinstance(inferred, Abstract) and inferred.dtype == "float":
                big = self._big_exact_operand(value, env, info, qualname)
                for target in targets:
                    if not (
                        isinstance(target, ast.Name)
                        and is_integer_unit_name(target.id)
                    ):
                        continue
                    if big is not None:
                        self._check_precision(
                            big[0], big[1], stmt, info, qualname,
                            context=f"the integer-unit binding '{target.id}'",
                        )
        for node in _walk_no_defs(stmt):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Div, ast.FloorDiv, ast.Mod)
            ):
                self._check_divisor_zero(
                    node, node.right, env, guarded, info, qualname
                )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                self._check_dtype_mix(node, env, info, qualname)

    def _check_divisor_zero(
        self,
        node: ast.BinOp,
        divisor: ast.expr,
        env: dict[str, Abstract],
        guarded: set[str],
        info: FunctionInfo,
        qualname: str,
    ) -> None:
        name = terminal_name(divisor)
        if name is None or name in guarded:
            return
        if _is_guarded_expr(divisor):
            return
        interval: Interval | None = None
        value = self._value_of(divisor, env, info, qualname)
        if isinstance(value, Abstract) and not value.interval.is_top:
            interval = value.interval
        if interval is None:
            if not is_integer_unit_name(name):
                return
            interval = NONNEG
        if not interval.contains_zero():
            return
        if not is_integer_unit_name(name) and seed_interval(name) is None:
            return
        self.hits.append(
            _Hit(
                kind="divzero",
                file=info.file,
                node=node,
                qualname=qualname,
                message=(
                    f"division by '{name}' in {qualname}() whose interval "
                    f"{interval.describe()} includes zero and no guard "
                    f"dominates it; validate it positive (or branch) before "
                    f"dividing"
                ),
            )
        )

    def _check_dtype_mix(
        self,
        node: ast.BinOp,
        env: dict[str, Abstract],
        info: FunctionInfo,
        qualname: str,
    ) -> None:
        left = self._value_of(node.left, env, info, qualname)
        right = self._value_of(node.right, env, info, qualname)
        if not isinstance(left, Abstract) or not isinstance(right, Abstract):
            return
        if not (left.is_np and left.is_array and right.is_np and right.is_array):
            return
        if not (left.dtype_declared and right.dtype_declared):
            return
        if left.dtype is None or right.dtype is None:
            return
        if left.dtype != right.dtype:
            self.hits.append(
                _Hit(
                    kind="dtype",
                    file=info.file,
                    node=node,
                    qualname=qualname,
                    message=(
                        f"NumPy operation {_src(node)} in {qualname}() mixes "
                        f"declared dtypes ({left.dtype} vs {right.dtype}); "
                        f"the silent promotion decides the result dtype — "
                        f"cast explicitly at the boundary"
                    ),
                )
            )


def replace_array_sum(base: Abstract) -> Abstract:
    """Abstract ``arr.sum()``: the element interval scaled by the length."""
    return Abstract(
        interval=base.interval.scaled_sum(base.length_hi),
        dtype=base.dtype,
        is_np=base.is_np,
        is_array=False,
        tainted=base.tainted,
    )


def replace_tainted(value: Abstract) -> Abstract:
    """Mark a value as already reported so parents stay quiet."""
    return Abstract(
        interval=value.interval,
        dtype=value.dtype,
        is_np=value.is_np,
        is_array=value.is_array,
        length_hi=value.length_hi,
        tainted=True,
    )


def _guarded_names(func: ast.AST) -> set[str]:
    """Terminal names tested by any if/assert/while/ternary in a function.

    A divisor whose name is tested anywhere in the function is treated
    as guarded — over-approximate on purpose (R074 is about divisors no
    test dominates at all, the common real bug).
    """
    guarded: set[str] = set()
    for stmt in getattr(func, "body", []):
        for node in _walk_no_defs(stmt):
            test: ast.expr | None = None
            if isinstance(node, (ast.If, ast.While, ast.Assert)):
                test = node.test
            elif isinstance(node, ast.IfExp):
                test = node.test
            if test is None:
                continue
            for sub in ast.walk(test):
                if isinstance(sub, ast.Name):
                    guarded.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    guarded.add(sub.attr)
    return guarded


def _is_guarded_expr(divisor: ast.expr) -> bool:
    """Whether the divisor expression carries its own positivity guard."""
    if isinstance(divisor, ast.Call):
        name = terminal_name(divisor.func)
        if name == "max" and any(
            isinstance(arg, ast.Constant)
            and isinstance(arg.value, (int, float))
            and arg.value > 0
            for arg in divisor.args
        ):
            return True
    if isinstance(divisor, ast.BoolOp) and isinstance(divisor.op, ast.Or):
        return any(
            isinstance(v, ast.Constant)
            and isinstance(v.value, (int, float))
            and v.value != 0
            for v in divisor.values
        )
    return False


def _src(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)  # type: ignore[arg-type]
    except Exception:
        return "<expr>"
    return text if len(text) <= 60 else text[:57] + "..."


def rangeflow_for(project: Project) -> RangeFlow:
    """The project's value-range state, computed once and cached."""
    graph = project.callgraph()
    cached: RangeFlow | None = getattr(graph, "_rangeflow_cache", None)
    if cached is None:
        cached = RangeFlow(project, graph)
        setattr(graph, "_rangeflow_cache", cached)
    return cached


def _emit(flow: RangeFlow, kind: str, code: str) -> Iterator[Finding]:
    seen: set[tuple[str, int, str]] = set()
    for hit in flow.hits:
        if hit.kind != kind:
            continue
        line = getattr(hit.node, "lineno", 0)
        key = (hit.file.relpath, line, hit.message)
        if key in seen:
            continue
        seen.add(key)
        yield hit.file.finding(code, hit.node, hit.message)


@rule("R070", scope="project")
def check_int64_overflow(project: Project) -> Iterator[Finding]:
    """Flag int64 intermediates not provably below 2**63."""
    yield from _emit(rangeflow_for(project), "overflow", "R070")


@rule("R072", scope="project")
def check_float64_precision(project: Project) -> Iterator[Finding]:
    """Flag exact integer quantities beyond 2**53 entering float64."""
    yield from _emit(rangeflow_for(project), "precision", "R072")


@rule("R073", scope="project")
def check_dtype_mix(project: Project) -> Iterator[Finding]:
    """Flag NumPy operations over arrays of conflicting declared dtypes."""
    yield from _emit(rangeflow_for(project), "dtype", "R073")


@rule("R074", scope="project")
def check_possibly_zero_divisor(project: Project) -> Iterator[Finding]:
    """Flag unguarded divisions by possibly-zero integer quantities."""
    yield from _emit(rangeflow_for(project), "divzero", "R074")
