"""Thread-root derivation and per-function concurrency facts (``R06x``).

The serving stack runs the same library code from several *thread
contexts* at once: the daemon serves connections on a pool of handler
threads, the load generator fans ``ThreadPoolExecutor`` client thunks
out, ``run_server`` parks the accept loop on its own thread, and signal
handlers interrupt whatever is running.  This module derives those
**thread roots** from the AST:

* ``handle_*`` functions and ``do_GET``/``do_POST`` methods — the
  request-handler naming contract (each is *concurrent with itself*:
  the daemon's handler pool runs many instances simultaneously);
* ``threading.Thread(target=...)`` targets;
* callables submitted to a ``ThreadPoolExecutor`` (``submit``/``map``),
  including functions called from ``lambda`` thunks;
* ``signal.signal`` handlers (asynchronous with the main thread);
* ``ProcessPoolExecutor`` initializers and submissions — recorded as
  **process-isolated** roots: they share no memory, so R060 excludes
  them, but R063/R066 still care about where the pools come from.

and, per function, the **facts** the R060–R066 checkers consume: shared
mutable-state writes (module globals, attributes of module-level
singletons, ``self`` attributes of *shared classes* — classes
instantiated at module top level or from a shared class's methods, to a
fixpoint) together with whether each write is lexically inside a
``with``-lock region; lock acquire/release pairing; lock-nesting pairs
(plus locks acquired transitively by callees, for lock-order analysis);
thread starts and process-pool creations in source order; blocking
calls made while a lock is held; and locally started non-daemon threads
that are never joined.

Reachability runs over the call graph *augmented with receiver-blind
method dispatch*: an unresolvable ``x.add(...)`` call may reach any
shared class's ``add`` method.  This deliberate over-approximation is
what lets the handler thread's ``metrics_registry().counter(...).add(1)``
chain reach ``Counter.add`` — the archetypal unlocked shared counter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import CallGraph, _Resolver
from .determinism_rules import resolve_call_target
from .rules import Project, SourceFile

#: Process-pool constructors (isolated memory; fork hazards, R063).
_POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: Thread-pool constructors (shared-memory concurrency).
_THREAD_POOLS = frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
    }
)

#: Handler method names the stdlib HTTP server dispatches per request.
_HTTP_VERB_METHODS = frozenset(
    {"do_GET", "do_POST", "do_PUT", "do_DELETE", "do_HEAD", "do_PATCH"}
)

#: Methods where ``self`` writes are construction, not shared mutation
#: (the object is not yet published to other threads).
_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Calls that block the calling thread (R065's alphabet).
_BLOCKING_CALLS = frozenset(
    {"sleep", "urlopen", "wait", "join", "result", "shutdown"}
)


@dataclass(frozen=True)
class ThreadRoot:
    """One entry point that runs on (or as) a distinct thread context."""

    qualname: str
    kind: str  # "handler" | "thread" | "client" | "signal" | "worker"
    #: Whether several instances of this root run at once (a concurrent
    #: root races *with itself*, so it alone counts as two contexts).
    concurrent: bool
    #: Process-isolated roots (pool workers/initializers) share no
    #: memory with the parent; R060 does not count them.
    isolated: bool


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
    #: Source lines where a thread is started.
    thread_start_lines: list[int] = field(default_factory=list)
    #: Process-pool constructor call nodes in this body.
    pool_ctor_nodes: list[ast.Call] = field(default_factory=list)
    #: Non-daemon threads started here and never joined nor escaping.
    leaked_threads: list[tuple[ast.AST, str]] = field(default_factory=list)


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
    """Shared thread-context state for the R060–R066 checkers."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.resolver = _Resolver.for_project(graph, project)
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
        self.roots = self._collect_roots()
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
        self.creates_pool_transitive = self._pool_fixpoint()

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

    def _resolve_ref(
        self, expr: ast.expr, module: str, aliases: dict[str, str]
    ) -> str | None:
        if isinstance(expr, ast.Name):
            for candidate in (aliases.get(expr.id, expr.id), f"{module}.{expr.id}"):
                resolved = self.resolver.resolve(candidate)
                if resolved is not None:
                    return resolved
            return None
        dotted = resolve_call_target(expr, aliases)
        return self.resolver.resolve(dotted) if dotted else None

    def _thunk_targets(
        self, expr: ast.expr, module: str, aliases: dict[str, str]
    ) -> list[str]:
        """Root targets of a submitted callable (names and lambda bodies)."""
        if isinstance(expr, ast.Lambda):
            targets = []
            for node in ast.walk(expr.body):
                if isinstance(node, ast.Call):
                    resolved = self._resolve_ref(node.func, module, aliases)
                    if resolved is not None:
                        targets.append(resolved)
            return targets
        resolved = self._resolve_ref(expr, module, aliases)
        return [resolved] if resolved is not None else []

    def _collect_roots(self) -> dict[str, ThreadRoot]:
        roots: dict[str, ThreadRoot] = {}

        def add(qualname: str, kind: str, *, concurrent: bool, isolated: bool) -> None:
            existing = roots.get(qualname)
            if existing is not None and existing.isolated and not isolated:
                pass  # a shared-memory context wins over an isolated one
            elif existing is not None:
                return
            roots[qualname] = ThreadRoot(
                qualname=qualname, kind=kind, concurrent=concurrent, isolated=isolated
            )

        for qualname, info in self.graph.functions.items():
            if info.name.startswith("handle_") or info.name in _HTTP_VERB_METHODS:
                add(qualname, "request handler", concurrent=True, isolated=False)

        for file in self.project.files:
            module = file.module
            aliases = file.aliases
            thread_pools: set[str] = set()
            process_pools: set[str] = set()
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    target_set = self._pool_kind(node.value, aliases)
                    if target_set is not None:
                        names = {
                            t.id for t in node.targets if isinstance(t, ast.Name)
                        }
                        (thread_pools if target_set == "thread" else process_pools).update(
                            names
                        )
                elif isinstance(node, ast.With):
                    for item in node.items:
                        if isinstance(item.context_expr, ast.Call) and isinstance(
                            item.optional_vars, ast.Name
                        ):
                            target_set = self._pool_kind(item.context_expr, aliases)
                            if target_set == "thread":
                                thread_pools.add(item.optional_vars.id)
                            elif target_set == "process":
                                process_pools.add(item.optional_vars.id)
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_call_target(node.func, aliases)
                if target == "threading.Thread":
                    for kw in node.keywords:
                        if kw.arg == "target":
                            for resolved in self._thunk_targets(
                                kw.value, module, aliases
                            ):
                                add(resolved, "thread", concurrent=False, isolated=False)
                elif target == "signal.signal" and len(node.args) >= 2:
                    for resolved in self._thunk_targets(node.args[1], module, aliases):
                        add(resolved, "signal handler", concurrent=False, isolated=False)
                elif self._pool_kind(node, aliases) == "process":
                    for kw in node.keywords:
                        if kw.arg == "initializer":
                            for resolved in self._thunk_targets(
                                kw.value, module, aliases
                            ):
                                add(resolved, "worker initializer", concurrent=True, isolated=True)
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")
                    and isinstance(node.func.value, ast.Name)
                    and node.args
                ):
                    pool_name = node.func.value.id
                    if pool_name in thread_pools:
                        for resolved in self._thunk_targets(
                            node.args[0], module, aliases
                        ):
                            add(resolved, "pool client", concurrent=True, isolated=False)
                    elif pool_name in process_pools:
                        for resolved in self._thunk_targets(
                            node.args[0], module, aliases
                        ):
                            add(resolved, "pool worker", concurrent=True, isolated=True)
        return roots

    @staticmethod
    def _pool_kind(call: ast.Call, aliases: dict[str, str]) -> str | None:
        target = resolve_call_target(call.func, aliases)
        if target in _THREAD_POOLS:
            return "thread"
        if target in _POOL_CONSTRUCTORS:
            return "process"
        return None

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
        for qualname, info in self.graph.functions.items():
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and id(node) not in self.call_targets
                    and node.func.attr in shared_methods
                ):
                    edges.setdefault(qualname, set()).update(
                        shared_methods[node.func.attr]
                    )
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
        """Shared-memory thread roots that reach a function, with chains."""
        found: list[tuple[ThreadRoot, tuple[str, ...]]] = []
        for root_qualname, chains in self.reach_by_root.items():
            root = self.roots[root_qualname]
            if root.isolated:
                continue
            chain = chains.get(qualname)
            if chain is not None:
                found.append((root, chain))
        return found

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

    def _pool_fixpoint(self) -> set[str]:
        """Functions that may create a process pool, callees included."""
        creates = {
            qualname
            for qualname, facts in self.facts.items()
            if facts.pool_ctor_nodes
        }
        for _ in range(4):
            changed = False
            for qualname in self.graph.functions:
                if qualname in creates:
                    continue
                if any(
                    callee in creates
                    for callee in self.graph.edges.get(qualname, ())
                ):
                    creates.add(qualname)
                    changed = True
            if not changed:
                break
        return creates


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
        self.global_decls: set[str] = set()
        self.lock_locals: set[str] = set()
        self.thread_locals: dict[str, ast.Call] = {}
        self._scan_prelude()
        self._thread_meta: dict[str, dict[str, bool]] = {}

    # -- prelude: names that change how later statements read ------------

    def _scan_prelude(self) -> None:
        for node in self._walk_own(self.func):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                target = resolve_call_target(node.value.func, self.aliases)
                if target in ("threading.Lock", "threading.RLock"):
                    self.lock_locals.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )

    @staticmethod
    def _walk_own(func: ast.AST) -> list[ast.AST]:
        out: list[ast.AST] = []
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            out.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return out

    # -- main traversal ---------------------------------------------------

    def run(self) -> None:
        for stmt in getattr(self.func, "body", []):
            self._visit(stmt, lock_stack=[], in_finally=False)
        self._finish_threads()

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
        # thread-local bookkeeping: ``t = threading.Thread(...)``
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            target_path = resolve_call_target(node.value.func, self.aliases)
            if target_path == "threading.Thread":
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.thread_locals[t.id] = node.value

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
        if attr == "start" and isinstance(func.value, ast.Name):
            if func.value.id in self.thread_locals:
                self.facts.thread_start_lines.append(node.lineno)
                self._thread_meta.setdefault(func.value.id, {})["started"] = True
        elif (
            attr == "start"
            and isinstance(func.value, ast.Call)
            and resolve_call_target(func.value.func, self.aliases) == "threading.Thread"
        ):
            self.facts.thread_start_lines.append(node.lineno)
        if attr == "join" and isinstance(func.value, ast.Name):
            if func.value.id in self.thread_locals:
                self._thread_meta.setdefault(func.value.id, {})["joined"] = True
        target_path = resolve_call_target(func, self.aliases)
        if target_path in _POOL_CONSTRUCTORS:
            self.facts.pool_ctor_nodes.append(node)
        if lock_stack:
            self.facts.calls_under_lock.append((lock_stack[-1], node))
            if name in _BLOCKING_CALLS:
                self.facts.blocking_under_lock.append((lock_stack[-1], node))

    # -- thread-leak wrap-up ----------------------------------------------

    def _finish_threads(self) -> None:
        for local, ctor in self.thread_locals.items():
            meta = self._thread_meta.get(local, {})
            if not meta.get("started") or meta.get("joined"):
                continue
            if self._thread_is_daemon(ctor) or self._escapes(local):
                continue
            self.facts.leaked_threads.append((ctor, local))

    @staticmethod
    def _thread_is_daemon(ctor: ast.Call) -> bool:
        for kw in ctor.keywords:
            if kw.arg == "daemon":
                return not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is False
                )
        return False

    def _escapes(self, local: str) -> bool:
        """Whether a thread object leaves the function by value."""
        for node in self._walk_own(self.func):
            if isinstance(node, ast.Return) and node.value is not None:
                if any(
                    isinstance(sub, ast.Name) and sub.id == local
                    for sub in ast.walk(node.value)
                ):
                    return True
            elif isinstance(node, ast.Call):
                for value in (*node.args, *(kw.value for kw in node.keywords)):
                    if isinstance(value, ast.Name) and value.id == local:
                        if not (
                            isinstance(node.func, ast.Attribute)
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id == local
                        ):
                            return True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) and any(
                        isinstance(sub, ast.Name) and sub.id == local
                        for sub in ast.walk(node.value)
                    ):
                        return True
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
            elif isinstance(node, (ast.List, ast.Tuple, ast.Dict)):
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.Name) and sub.id == local:
                        return True
        return False


def threads_for(project: Project) -> ThreadAnalysis:
    """The project's thread-context state, computed once and cached."""
    graph = project.callgraph()
    cached: ThreadAnalysis | None = getattr(graph, "_threads_cache", None)
    if cached is None:
        cached = ThreadAnalysis(project, graph)
        setattr(graph, "_threads_cache", cached)
    return cached
