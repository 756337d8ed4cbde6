"""Determinism & parallel-safety rule pack (``R010``–``R015``).

The experiment engine (:mod:`repro.experiments.engine`) fans planning
work across a process pool on top of a content-addressed on-disk cache
(:mod:`repro.experiments.cache`).  That architecture has a contract the
runtime plan verifier cannot check, because it is a property of *code*
rather than of plans: worker functions must be pure (same inputs, same
bytes, in every process) and must derive cache keys from
deterministically ordered data.  These rules encode the contract:

* ``R010``/``R011`` flag nondeterministic inputs (clocks, RNGs, pids,
  environment reads) anywhere in the library — the worker-reachable set
  is effectively the whole package, and intentional configuration
  boundaries carry inline ``noqa[R011]`` markers with reasons.
* ``R015`` flags mutable module-level state: each pool worker gets a
  private copy, so mutations silently diverge between processes.

Unpicklable pool callables (lambdas, nested functions) need no rule:
both process-pool sites raise on them at submission, and the test suite
runs both with more than one job.

Order-unstable cache-key construction (set iteration, unsorted
``json.dumps``) needs no rule either: ``tests/test_cache_keys.py``
derives every kind of key under two hash seeds and pins their digest.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import SourceFile, rule

#: Exact dotted call targets that are nondeterministic.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "os.getpid",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Dotted prefixes whose every call is nondeterministic.
_NONDETERMINISTIC_PREFIXES = ("random.", "secrets.", "numpy.random.")

#: Targets exempt from R010 even under a nondeterministic prefix.
_DETERMINISTIC_EXEMPT = frozenset({"numpy.random.Generator"})

#: Environment-read call targets (R011).
_ENV_READ_CALLS = frozenset(
    {
        "os.getenv",
        "os.environ.get",
        "os.environ.items",
        "os.environ.keys",
        "os.environ.values",
        "os.path.expanduser",
        "pathlib.Path.home",
    }
)

#: Mutable builtin constructors for R015.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}
)


def resolve_call_target(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Dotted path a call expression resolves to, through import aliases."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, node.id)
    return ".".join([base, *reversed(parts)])


class _NondeterminismVisitor(ast.NodeVisitor):
    """R010/R011: nondeterministic calls and environment reads."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        self.aliases = file.aliases
        self.findings: list[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        """Classify every call by its resolved dotted target."""
        target = resolve_call_target(node.func, self.aliases)
        if target is not None:
            if target in _ENV_READ_CALLS:
                self.findings.append(
                    self.file.finding(
                        "R011",
                        node,
                        f"environment read {target}(); results now depend on "
                        f"the invoking shell",
                    )
                )
            elif self._is_nondeterministic(target, node):
                self.findings.append(
                    self.file.finding(
                        "R010",
                        node,
                        f"nondeterministic call {target}(); worker outputs "
                        f"must be bit-identical across processes and reruns",
                    )
                )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        """Flag ``os.environ[...]`` reads (stores are configuration)."""
        if isinstance(node.ctx, ast.Load):
            target = resolve_call_target(node.value, self.aliases)
            if target == "os.environ":
                self.findings.append(
                    self.file.finding(
                        "R011",
                        node,
                        "environment read os.environ[...]; results now "
                        "depend on the invoking shell",
                    )
                )
        self.generic_visit(node)

    @staticmethod
    def _is_nondeterministic(target: str, node: ast.Call) -> bool:
        if target in _DETERMINISTIC_EXEMPT:
            return False
        if target in _NONDETERMINISTIC_CALLS:
            return True
        for prefix in _NONDETERMINISTIC_PREFIXES:
            if target.startswith(prefix):
                # A seeded default_rng(seed) is deterministic.
                if target.endswith("default_rng") and (node.args or node.keywords):
                    return False
                return True
        return False


@rule("R010")
def check_nondeterministic_calls(file: SourceFile) -> Iterator[Finding]:
    """Flag clock/RNG/pid calls that break run-to-run determinism."""
    visitor = _NondeterminismVisitor(file)
    visitor.visit(file.tree)
    yield from (f for f in visitor.findings if f.code == "R010")


@rule("R011")
def check_environment_reads(file: SourceFile) -> Iterator[Finding]:
    """Flag ambient environment reads outside configuration boundaries."""
    visitor = _NondeterminismVisitor(file)
    visitor.visit(file.tree)
    yield from (f for f in visitor.findings if f.code == "R011")


def _frozen_dataclasses(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Same-module dataclass names, split into (frozen, mutable)."""
    frozen: set[str] = set()
    mutable: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            name = None
            is_frozen = False
            if isinstance(deco, ast.Name):
                name = deco.id
            elif isinstance(deco, ast.Call):
                if isinstance(deco.func, ast.Name):
                    name = deco.func.id
                is_frozen = any(
                    kw.arg == "frozen"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in deco.keywords
                )
            if name == "dataclass":
                (frozen if is_frozen else mutable).add(node.name)
    return frozen, mutable


@rule("R015")
def check_module_level_mutable_state(file: SourceFile) -> Iterator[Finding]:
    """Flag lowercase module-level bindings of evidently mutable values."""
    _, mutable_dataclasses = _frozen_dataclasses(file.tree)
    for node in file.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name == name.upper():  # ALL_CAPS: constant by convention
                continue
            if name.startswith("__") and name.endswith("__"):
                continue  # dunders (__all__ etc.) are interpreter metadata
            value = node.value
            reason = None
            if isinstance(value, (ast.List, ast.Dict, ast.Set)):
                reason = "a mutable literal"
            elif isinstance(value, ast.Call):
                called = None
                if isinstance(value.func, ast.Name):
                    called = value.func.id
                elif isinstance(value.func, ast.Attribute):
                    called = value.func.attr
                if called in _MUTABLE_CONSTRUCTORS:
                    reason = f"a mutable {called}()"
                elif called in mutable_dataclasses:
                    reason = f"a non-frozen dataclass {called}()"
            if reason is not None:
                yield file.finding(
                    "R015",
                    node,
                    f"module-level name '{name}' binds {reason}; pool "
                    f"workers copy module state, so mutations diverge "
                    f"between processes",
                )
