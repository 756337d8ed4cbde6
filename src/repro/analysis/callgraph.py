"""Project-wide call graph over the analyzed source set.

The per-file rules (R003–R030) see one AST at a time; the
concurrency pack (R060–R065, :mod:`.threadroots`) needs to know *who
calls whom across the whole of* ``src/repro``.  This module builds
that graph once per :class:`~repro.analysis.rules.Project` (cached on
the project via :meth:`Project.callgraph`) from nothing but the parsed
ASTs:

* every function and method gets a dotted :attr:`FunctionInfo.qualname`
  (``repro.experiments.cache.fetch``,
  ``repro.manager.MemoryManager.plan_cached``, nested defs included);
* call sites are resolved through each file's import aliases
  (:attr:`SourceFile.aliases <repro.analysis.rules.SourceFile.aliases>`:
  absolute *and* relative imports, package re-exports followed
  transitively), local bindings, and ``self``/``cls`` method dispatch
  within the enclosing class;
* decorators are transparent — an ``@lru_cache``- or
  ``@functools.wraps``-wrapped function keeps its identity, so calls to
  the decorated name still resolve to its body;
* a *reference* to a known function in argument or keyword position
  (``pool.submit(worker, x)``, ``initializer=configure_worker``,
  ``functools.partial(f, …)``, ``cache.fetch(key, thunk)``) is recorded
  as a may-call edge: anything that escapes by value may run later.

Resolution is deliberately conservative-by-name: unresolvable dynamic
dispatch (``ARTIFACTS[name]()``, attribute calls on arbitrary objects)
produces no edge rather than a wrong one, so downstream rules trade a
little recall for zero resolution-induced false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .rules import Project, SourceFile


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


@dataclass(frozen=True)
class FunctionInfo:
    """One function/method definition known to the call graph."""

    qualname: str
    module: str
    cls: str | None
    file: SourceFile
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def name(self) -> str:
        """The bare (unqualified) function name."""
        return self.node.name


@dataclass
class CallGraph:
    """Functions and the resolved call edges between them."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: caller qualname → callee qualnames (direct calls and references).
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: call-site detail: caller → list of (callee, Call node, file).
    callsites: dict[str, list[tuple[str, ast.Call, SourceFile]]] = field(
        default_factory=dict
    )

    def callees(self, qualname: str) -> set[str]:
        """Direct callees of a function (empty when unknown)."""
        return self.edges.get(qualname, set())


class _DefCollector(ast.NodeVisitor):
    """First pass: record every function definition with its qualname."""

    def __init__(self, graph: CallGraph, file: SourceFile, module: str) -> None:
        self.graph = graph
        self.file = file
        self.module = module
        self.scope: list[str] = []
        self.class_stack: list[str] = []

    def _record(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = ".".join([self.module, *self.scope, node.name])
        self.graph.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=self.module,
            cls=self.class_stack[-1] if self.class_stack else None,
            file=self.file,
            node=node,
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Record the def, then descend for nested defs."""
        self._record(node)
        self.scope.append(node.name)
        saved_classes = self.class_stack
        self.class_stack = []
        self.generic_visit(node)
        self.class_stack = saved_classes
        self.scope.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async defs are recorded like regular ones."""
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Methods are scoped under ``module.Class.method``."""
        self.scope.append(node.name)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope.pop()


@dataclass
class _Resolver:
    """Resolves dotted paths to known functions, following re-exports."""

    graph: CallGraph
    #: module → alias map (covers package ``__init__`` re-exports).
    module_aliases: dict[str, dict[str, str]]

    @classmethod
    def for_project(cls, graph: CallGraph, project: Project) -> "_Resolver":
        """A resolver over every analyzed file's alias map."""
        return cls(graph, {f.module: f.aliases for f in project.files})

    def resolve(self, dotted: str, depth: int = 0) -> str | None:
        """Qualname of the function a dotted path names, if known."""
        if depth > 4:  # re-export chains are short; cycles must terminate
            return None
        if dotted in self.graph.functions:
            return dotted
        # a.b.c where a.b is a module whose alias map re-exports c
        head, _, leaf = dotted.rpartition(".")
        if head and leaf:
            exported = self.module_aliases.get(head, {}).get(leaf)
            if exported and exported != dotted:
                return self.resolve(exported, depth + 1)
        return None


class _EdgeCollector(ast.NodeVisitor):
    """Second pass: resolve call sites and value references to edges."""

    def __init__(
        self,
        graph: CallGraph,
        resolver: _Resolver,
        file: SourceFile,
    ) -> None:
        self.graph = graph
        self.resolver = resolver
        self.file = file
        self.module = file.module
        self.aliases = file.aliases
        self.scope: list[str] = []
        self.class_stack: list[str] = []

    # -- scope tracking -------------------------------------------------

    def _current_caller(self) -> str | None:
        if not self.scope:
            return None
        return ".".join([self.module, *self.scope])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Enter the function scope; decorators stay transparent.

        Unlike the def collector, the class stack is *not* reset here:
        ``self`` inside a def nested in a method still refers to the
        enclosing class, and edge resolution needs that.
        """
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async defs tracked like regular ones."""
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Enter the class scope for method qualnames."""
        self.scope.append(node.name)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope.pop()

    # -- resolution ------------------------------------------------------

    def _resolve_expr(self, expr: ast.expr) -> str | None:
        """Qualname a name/attribute expression refers to, if known."""
        # self.method / cls.method → enclosing class's method
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and self.class_stack
        ):
            # innermost enclosing class (last occurrence in the scope)
            idx = (
                len(self.scope)
                - 1
                - self.scope[::-1].index(self.class_stack[-1])
            )
            cls_path = ".".join([self.module, *self.scope[: idx + 1]])
            return self.resolver.resolve(f"{cls_path}.{expr.attr}")
        dotted = resolve_call_target(expr, self.aliases)
        if dotted is None:
            return None
        resolved = self.resolver.resolve(dotted)
        if resolved is not None:
            return resolved
        # a bare name: try enclosing scopes (nested defs), then module
        if isinstance(expr, ast.Name):
            for cut in range(len(self.scope), -1, -1):
                candidate = ".".join([self.module, *self.scope[:cut], expr.id])
                resolved = self.resolver.resolve(candidate)
                if resolved is not None:
                    return resolved
        return None

    def _add_edge(self, callee: str, call: ast.Call | None) -> None:
        caller = self._current_caller()
        if caller is None or caller not in self.graph.functions:
            # module-level code: attribute edges to a synthetic "<module>"
            caller = f"{self.module}.<module>"
        self.graph.edges.setdefault(caller, set()).add(callee)
        if call is not None:
            self.graph.callsites.setdefault(caller, []).append(
                (callee, call, self.file)
            )

    def visit_Call(self, node: ast.Call) -> None:
        """Record the direct edge plus reference edges for escaping args."""
        callee = self._resolve_expr(node.func)
        if callee is not None:
            self._add_edge(callee, node)
        for value in (*node.args, *(kw.value for kw in node.keywords)):
            if isinstance(value, (ast.Name, ast.Attribute)):
                referenced = self._resolve_expr(value)
                if referenced is not None:
                    self._add_edge(referenced, None)
        self.generic_visit(node)


def build_callgraph(project: Project) -> CallGraph:
    """Construct the whole-program call graph for an analyzed project."""
    graph = CallGraph()
    for file in project.files:
        _DefCollector(graph, file, file.module).visit(file.tree)
    resolver = _Resolver.for_project(graph, project)
    for file in project.files:
        _EdgeCollector(graph, resolver, file).visit(file.tree)
    return graph
