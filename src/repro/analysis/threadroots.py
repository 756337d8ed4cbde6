"""Declared thread roots and per-function concurrency facts (``R06x``).

The serving stack runs the same library code from several *thread
contexts* at once: the daemon's accept loop runs on its own thread and
answers stored replies there, a pool of handler threads renders the
other requests, the load generator fans its requests out over a thread
pool, and a signal handler interrupts whatever is running.  Each such
entry point is a **thread root**, declared by a marker on its ``def``
line (parsed with the ``noqa`` markers, :mod:`.suppressions`)::

    def handle(self, conn, ...):  # repro: thread-root[concurrent] -- handler pool
    def serve_forever(self):  # repro: thread-root -- accept loop

``[concurrent]`` marks a root that runs as several threads at once: it
races with itself, so it alone counts as two contexts.  The text after
``--`` names the context in findings.  A declaration travels with its
``def`` through a rename, and a test requires every file that starts a
thread, a thread pool or a signal handler to declare a root.

Per function, this module collects the **facts** the R060–R065
checkers consume: shared mutable-state writes (module globals,
attributes of module-level singletons, ``self`` attributes of *shared
classes* — classes instantiated at module top level or from a shared
class's methods, to a fixpoint) together with whether each write is
lexically inside a ``with``-lock region; lock acquire/release pairing;
lock-nesting pairs (plus locks acquired transitively by callees, for
lock-order analysis); and blocking calls made while a lock is held.

Reachability runs over the call graph *augmented with receiver-blind
method dispatch*: an unresolvable ``x.add(...)`` call may reach any
shared class's ``add`` method.  This deliberate over-approximation is
what lets the handler thread's ``metrics_registry().counter(...).add(1)``
chain reach ``Counter.add`` — the archetypal unlocked shared counter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import CallGraph, resolve_call_target
from .rules import Project, SourceFile

#: Methods where ``self`` writes are construction, not shared mutation
#: (the object is not yet published to other threads).
_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Calls that block the calling thread (R065's alphabet).
_BLOCKING_CALLS = frozenset(
    {"sleep", "urlopen", "wait", "join", "result", "shutdown"}
)


@dataclass(frozen=True)
class ThreadRoot:
    """One declared entry point of a distinct thread context."""

    qualname: str
    label: str  # names the context in findings: "handler pool", "accept loop", …
    #: Whether several instances of this root run at once (a concurrent
    #: root races *with itself*, so it alone counts as two contexts).
    concurrent: bool


@dataclass(frozen=True)
class SharedWrite:
    """One store to shared mutable state inside a function body."""

    node: ast.AST
    target: str
    protected: bool  # lexically inside a with-lock region


@dataclass(frozen=True)
class LockEvent:
    """One explicit ``.acquire()`` / ``.release()`` call."""

    node: ast.AST
    base: str
    in_finally: bool


@dataclass
class FunctionFacts:
    """Everything the R06x checkers need to know about one function."""

    writes: list[SharedWrite] = field(default_factory=list)
    acquires: list[LockEvent] = field(default_factory=list)
    releases: list[LockEvent] = field(default_factory=list)
    #: Lock ids entered via ``with`` anywhere in the body.
    with_locks: set[str] = field(default_factory=set)
    #: Direct nesting: with-lock B entered while with-lock A held.
    nested_pairs: list[tuple[str, str, ast.AST]] = field(default_factory=list)
    #: Calls made while holding a lock: (held lock id, call node).
    calls_under_lock: list[tuple[str, ast.Call]] = field(default_factory=list)
    #: Blocking calls made while holding a lock.
    blocking_under_lock: list[tuple[str, ast.Call]] = field(default_factory=list)
    #: Method names called on a receiver the call graph could not resolve.
    blind_calls: set[str] = field(default_factory=set)


def _attr_chain_root(expr: ast.expr) -> ast.expr:
    """Innermost value of an attribute/subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr


def _collect_classes(project: Project) -> dict[str, list[str]]:
    """Bare class name → dotted ``module.Class`` paths, project-wide."""
    classes: dict[str, list[str]] = {}
    for file in project.files:
        module = file.module
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(f"{module}.{node.name}")
    return classes


def _module_globals(file: SourceFile) -> set[str]:
    """Names bound by assignments at a module's top level."""
    names: set[str] = set()
    for stmt in file.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _instantiated_classes(scope: ast.AST, classes: dict[str, list[str]]) -> set[str]:
    """Dotted names of known classes instantiated anywhere under a node."""
    found: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else (
                node.func.attr if isinstance(node.func, ast.Attribute) else None
            )
            if name in classes:
                found.update(classes[name])
    return found


class ThreadAnalysis:
    """Shared thread-context state for the R060–R065 checkers."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.classes = _collect_classes(project)
        self.globals_by_module = {
            f.module: _module_globals(f) for f in project.files
        }
        self.shared_classes = self._shared_class_fixpoint()
        #: Resolved call-node id → callee qualname (from the call graph).
        self.call_targets: dict[int, str] = {}
        for sites in graph.callsites.values():
            for callee, call, _file in sites:
                self.call_targets[id(call)] = callee
        self.roots = self._declared_roots()
        self.facts: dict[str, FunctionFacts] = {}
        for qualname, info in graph.functions.items():
            collector = _FactCollector(self, qualname, info.node)
            collector.run()
            self.facts[qualname] = collector.facts
        self._augmented = self._augment_edges()
        #: root qualname → {reached qualname: witness chain}.
        self.reach_by_root: dict[str, dict[str, tuple[str, ...]]] = {
            root: self._reach({root}) for root in sorted(self.roots)
        }
        self.locks_transitive = self._locks_fixpoint()

    # -- shared-state model ----------------------------------------------

    def _shared_class_fixpoint(self) -> set[str]:
        """Classes whose instances are visible to multiple threads.

        Seeds: classes instantiated by module top-level code.  Closure:
        classes instantiated inside a shared class's body (e.g. the
        ``Counter`` a shared ``MetricsRegistry`` creates and hands out).
        """
        shared: set[str] = set()
        class_bodies: dict[str, ast.ClassDef] = {}
        for file in self.project.files:
            module = file.module
            for stmt in file.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    class_bodies[f"{module}.{stmt.name}"] = stmt
                elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Instances created inside a function body are locals
                    # until something publishes them; only true top-level
                    # construction (module singletons) seeds the set.
                    shared.update(_instantiated_classes(stmt, self.classes))
        while True:
            grown = set(shared)
            for dotted in shared:
                body = class_bodies.get(dotted)
                if body is not None:
                    grown.update(_instantiated_classes(body, self.classes))
            if grown == shared:
                return shared
            shared = grown

    def is_shared_class(self, module: str, cls: str | None) -> bool:
        """Whether ``module.cls`` instances are shared across threads."""
        return cls is not None and f"{module}.{cls}" in self.shared_classes

    # -- roots -----------------------------------------------------------

    def _declared_roots(self) -> dict[str, ThreadRoot]:
        """Functions whose ``def`` line carries a thread-root marker."""
        markers = {(f.relpath, m.line): m for f in self.project.files for m in f.thread_roots}
        roots: dict[str, ThreadRoot] = {}
        for qualname, info in self.graph.functions.items():
            marker = markers.get((info.file.relpath, info.node.lineno))
            if marker is not None:
                roots[qualname] = ThreadRoot(qualname, marker.label, marker.concurrent)
        return roots

    # -- reachability over augmented edges -------------------------------

    def _augment_edges(self) -> dict[str, set[str]]:
        """Call edges plus receiver-blind dispatch to shared methods.

        An attribute call the resolver could not bind (``x.add(1)`` on an
        arbitrary receiver) *may* land on any shared class's method of
        that name — exactly the pattern of
        ``metrics_registry().counter(...).add(1)``.  Limiting the blind
        dispatch to shared classes keeps the over-approximation small.
        """
        shared_methods: dict[str, set[str]] = {}
        for qualname, info in self.graph.functions.items():
            if self.is_shared_class(info.module, info.cls):
                shared_methods.setdefault(info.name, set()).add(qualname)
        edges: dict[str, set[str]] = {
            caller: set(callees) for caller, callees in self.graph.edges.items()
        }
        for qualname, facts in self.facts.items():
            for name in facts.blind_calls & shared_methods.keys():
                edges.setdefault(qualname, set()).update(shared_methods[name])
        return edges

    def _reach(self, roots: set[str]) -> dict[str, tuple[str, ...]]:
        chains: dict[str, tuple[str, ...]] = {
            root: (root,) for root in sorted(roots) if root in self.graph.functions
        }
        frontier = sorted(chains)
        while frontier:
            next_frontier: list[str] = []
            for caller in frontier:
                for callee in sorted(self._augmented.get(caller, ())):
                    if callee in chains:
                        continue
                    chains[callee] = (*chains[caller], callee)
                    next_frontier.append(callee)
            frontier = next_frontier
        return chains

    def contexts_reaching(
        self, qualname: str
    ) -> list[tuple[ThreadRoot, tuple[str, ...]]]:
        """Thread roots that reach a function, with chains."""
        return [
            (self.roots[root], chains[qualname])
            for root, chains in self.reach_by_root.items()
            if qualname in chains
        ]

    # -- interprocedural fixpoints ---------------------------------------

    def _locks_fixpoint(self) -> dict[str, set[str]]:
        """Lock ids each function may acquire, callees included."""
        held: dict[str, set[str]] = {
            qualname: set(facts.with_locks) for qualname, facts in self.facts.items()
        }
        for _ in range(4):
            changed = False
            for qualname in held:
                for callee in self.graph.edges.get(qualname, ()):
                    extra = held.get(callee, set()) - held[qualname]
                    if extra:
                        held[qualname].update(extra)
                        changed = True
            if not changed:
                break
        return held

def _lock_identity(expr: ast.expr, owner: str) -> str | None:
    """Stable id of a lock-ish ``with`` context expression, if any.

    ``flock``-style file locks share one global identity (the lock is
    the *file*, the same regardless of which object wraps it);
    in-process locks are identified by owner-qualified source text.
    """
    probe = expr
    if isinstance(expr, ast.Call):
        probe = expr.func
    name = None
    if isinstance(probe, ast.Name):
        name = probe.id
    elif isinstance(probe, ast.Attribute):
        name = probe.attr
    if name is None or "lock" not in name.lower():
        return None
    if "flock" in name.lower():
        return "flock"
    if isinstance(expr, ast.Call):
        return f"{owner}:{name}"
    return f"{owner}:{ast.unparse(expr)}"


class _FactCollector:
    """One pass over a function body, lock regions tracked lexically."""

    def __init__(
        self, analysis: ThreadAnalysis, qualname: str, func: ast.AST
    ) -> None:
        self.analysis = analysis
        self.qualname = qualname
        self.func = func
        info = analysis.graph.functions[qualname]
        self.module = info.module
        self.cls = info.cls
        self.func_name = info.name
        self.aliases = info.file.aliases
        self.facts = FunctionFacts()
        self.owner = f"{info.module}.{info.cls}" if info.cls else info.module
        #: Names declared ``global`` and locals bound to a new lock, as
        #: the traversal (in source order) meets them.
        self.global_decls: set[str] = set()
        self.lock_locals: set[str] = set()

    # -- main traversal ---------------------------------------------------

    def run(self) -> None:
        for stmt in getattr(self.func, "body", []):
            self._visit(stmt, lock_stack=[], in_finally=False)

    def _lock_id(self, expr: ast.expr) -> str | None:
        identity = _lock_identity(expr, self.owner)
        if identity is not None:
            return identity
        if isinstance(expr, ast.Name) and expr.id in self.lock_locals:
            return f"{self.owner}:{expr.id}"
        return None

    def _visit(
        self, node: ast.AST, lock_stack: list[str], in_finally: bool
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.With):
            entered: list[str] = []
            for item in node.items:
                identity = self._lock_id(item.context_expr)
                if identity is not None:
                    for held in lock_stack:
                        if held != identity:
                            self.facts.nested_pairs.append(
                                (held, identity, item.context_expr)
                            )
                    entered.append(identity)
                    self.facts.with_locks.add(identity)
                self._visit(item.context_expr, lock_stack, in_finally)
            inner = [*lock_stack, *entered]
            for stmt in node.body:
                self._visit(stmt, inner, in_finally)
            return
        if isinstance(node, ast.Try):
            for stmt in node.body:
                self._visit(stmt, lock_stack, in_finally)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._visit(stmt, lock_stack, in_finally)
            for stmt in node.orelse:
                self._visit(stmt, lock_stack, in_finally)
            for stmt in node.finalbody:
                self._visit(stmt, lock_stack, True)
            return
        if isinstance(node, ast.Global):
            self.global_decls.update(node.names)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._record_writes(node, lock_stack)
        if isinstance(node, ast.Call):
            self._record_call(node, lock_stack, in_finally)
        for child in ast.iter_child_nodes(node):
            self._visit(child, lock_stack, in_finally)

    # -- writes ------------------------------------------------------------

    def _is_shared_target(self, target: ast.expr) -> bool:
        root = _attr_chain_root(target)
        if isinstance(target, ast.Name):
            return target.id in self.global_decls
        if not isinstance(root, ast.Name):
            return False
        if root.id == "self":
            return (
                self.analysis.is_shared_class(self.module, self.cls)
                and self.func_name not in _CONSTRUCTION_METHODS
            )
        if root.id in self.analysis.globals_by_module.get(self.module, set()):
            return True
        # writes through an imported module/object (module.total += 1)
        return isinstance(target, (ast.Attribute, ast.Subscript)) and root.id in self.aliases

    def _record_writes(
        self,
        node: "ast.Assign | ast.AugAssign | ast.AnnAssign",
        lock_stack: list[str],
    ) -> None:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                candidates: list[ast.expr] = list(target.elts)
            else:
                candidates = [target]
            for candidate in candidates:
                if self._is_shared_target(candidate):
                    self.facts.writes.append(
                        SharedWrite(
                            node=node,
                            target=ast.unparse(candidate),
                            protected=bool(lock_stack),
                        )
                    )
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if resolve_call_target(node.value.func, self.aliases) in (
                "threading.Lock", "threading.RLock"
            ):
                self.lock_locals.update(t.id for t in node.targets if isinstance(t, ast.Name))

    # -- calls -------------------------------------------------------------

    def _record_call(
        self, node: ast.Call, lock_stack: list[str], in_finally: bool
    ) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        name = func.id if isinstance(func, ast.Name) else attr
        if attr == "acquire":
            self.facts.acquires.append(
                LockEvent(node=node, base=ast.unparse(func.value), in_finally=in_finally)
            )
        elif attr == "release":
            self.facts.releases.append(
                LockEvent(node=node, base=ast.unparse(func.value), in_finally=in_finally)
            )
        if attr is not None and id(node) not in self.analysis.call_targets:
            self.facts.blind_calls.add(attr)
        if lock_stack:
            self.facts.calls_under_lock.append((lock_stack[-1], node))
            if name in _BLOCKING_CALLS:
                self.facts.blocking_under_lock.append((lock_stack[-1], node))


def threads_for(project: Project) -> ThreadAnalysis:
    """The project's thread-context state, computed once and cached."""
    graph = project.callgraph()
    cached: ThreadAnalysis | None = getattr(graph, "_threads_cache", None)
    if cached is None:
        cached = ThreadAnalysis(project, graph)
        setattr(graph, "_threads_cache", cached)
    return cached
