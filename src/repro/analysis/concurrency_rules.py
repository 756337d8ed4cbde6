"""Concurrency-safety rule pack (``R060``–``R066``, project scope).

Consumes :mod:`repro.analysis.threadroots`: thread roots derived from
the serving stack's AST (request handlers, ``threading.Thread`` targets,
thread-pool thunks, signal handlers), reachability over the call graph
augmented with receiver-blind dispatch to shared-class methods, and
per-function concurrency facts.

Rules
-----
* **R060** — an unsynchronized write to shared mutable state (a module
  global, an attribute of a module-level singleton, a ``self`` attribute
  of a shared class) is reachable from at least two shared-memory thread
  contexts (a *concurrent* root — many handler threads, many pool
  clients — races with itself and counts as two).  The finding carries a
  witness call chain per context.  Process-isolated roots (pool workers,
  initializers) share no memory and never count.
* **R061** — an explicit ``.acquire()`` whose ``.release()`` is missing
  or not in a ``finally`` block: an exception between them leaks the
  lock forever.  (``with`` locks release structurally and never fire.)
* **R062** — lock-order inversion: lock B taken while holding A on one
  path and A taken while holding B on another (callee acquisitions
  included), the classic deadlock shape; ``flock`` file locks share one
  identity because the lock is the file, not the wrapper object.
* **R063** — a process pool created on a path *after* a thread was
  started in the same function: ``fork`` then snapshots lock/queue state
  mid-flight in threads that do not survive into the child.
* **R065** — a blocking call (``sleep``, ``join``, ``result``,
  ``urlopen``, ``shutdown``, ``wait``) made while holding a lock;
  warning — it serializes every peer on I/O time.
* **R066** — a non-daemon thread started, never joined, and never
  escaping the function: nothing can join it later, so process exit
  (and the daemon's drain contract) blocks on it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .reach_rules import _chain_str, _short
from .rules import Project, rule
from .threadroots import ThreadAnalysis, threads_for


@rule("R060", scope="project")
def check_unlocked_shared_writes(project: Project) -> Iterator[Finding]:
    """Flag unsynchronized shared-state writes under multiple threads."""
    analysis = threads_for(project)
    for qualname in sorted(analysis.facts):
        facts = analysis.facts[qualname]
        unprotected = [w for w in facts.writes if not w.protected]
        if not unprotected:
            continue
        contexts = analysis.contexts_reaching(qualname)
        weight = sum(2 if root.concurrent else 1 for root, _ in contexts)
        if weight < 2:
            continue
        info = analysis.graph.functions[qualname]
        primary_root, primary_chain = contexts[0]
        others = ", ".join(
            f"{_short(root.qualname)} ({root.kind})" for root, _ in contexts[1:3]
        )
        context_note = (
            f"{_short(primary_root.qualname)} ({primary_root.kind}"
            + (", concurrent with itself)" if primary_root.concurrent else ")")
            + (f" and {others}" if others else "")
        )
        for write in unprotected:
            yield info.file.finding(
                "R060",
                write.node,
                f"write to shared state '{write.target}' in {_short(qualname)}() "
                f"is reachable from {len(contexts)} thread context(s) — "
                f"{context_note} — without an enclosing lock "
                f"(call chain: {_chain_str(primary_chain)}); guard it with a "
                f"threading.Lock/flock or make it thread-local",
            )


@rule("R061", scope="project")
def check_unpaired_acquire(project: Project) -> Iterator[Finding]:
    """Flag ``.acquire()`` without a finally-guarded ``.release()``."""
    analysis = threads_for(project)
    for qualname in sorted(analysis.facts):
        facts = analysis.facts[qualname]
        if not facts.acquires:
            continue
        info = analysis.graph.functions[qualname]
        for event in facts.acquires:
            matching = [r for r in facts.releases if r.base == event.base]
            if not matching:
                yield info.file.finding(
                    "R061",
                    event.node,
                    f"{event.base}.acquire() in {_short(qualname)}() has no "
                    f"matching release in this function; an exception leaks "
                    f"the lock — prefer 'with {event.base}:'",
                )
            elif not any(r.in_finally for r in matching):
                yield info.file.finding(
                    "R061",
                    event.node,
                    f"{event.base}.acquire() in {_short(qualname)}() is "
                    f"released outside any finally block; an exception "
                    f"between acquire and release leaks the lock — use "
                    f"'with {event.base}:' or try/finally",
                )


@rule("R062", scope="project")
def check_lock_order_inversion(project: Project) -> Iterator[Finding]:
    """Flag opposite lock-nesting orders across the project."""
    analysis = threads_for(project)
    #: (outer, inner) → first witness (node, holder qualname).
    pairs: dict[tuple[str, str], tuple[ast.AST, str]] = {}
    for qualname in sorted(analysis.facts):
        facts = analysis.facts[qualname]
        for outer, inner, node in facts.nested_pairs:
            pairs.setdefault((outer, inner), (node, qualname))
        for held, call in facts.calls_under_lock:
            callee = analysis.call_targets.get(id(call))
            if callee is None:
                continue
            for acquired in sorted(analysis.locks_transitive.get(callee, ())):
                if acquired != held:
                    pairs.setdefault((held, acquired), (call, qualname))
    reported: set[tuple[str, str]] = set()
    for (outer, inner), (node, qualname) in sorted(
        pairs.items(), key=lambda kv: (kv[1][1], getattr(kv[1][0], "lineno", 0))
    ):
        inverse = (inner, outer)
        if inverse not in pairs or (outer, inner) in reported:
            continue
        reported.add((outer, inner))
        reported.add(inverse)
        _, other_qualname = pairs[inverse]
        info = analysis.graph.functions[qualname]
        yield info.file.finding(
            "R062",
            node,
            f"lock-order inversion: {_short(qualname)}() takes '{inner}' "
            f"while holding '{outer}', but {_short(other_qualname)}() takes "
            f"them in the opposite order; two threads interleaving these "
            f"paths deadlock — pick one global order",
        )


@rule("R063", scope="project")
def check_fork_after_threads(project: Project) -> Iterator[Finding]:
    """Flag process pools created after a thread start on the same path."""
    analysis = threads_for(project)
    for qualname in sorted(analysis.facts):
        facts = analysis.facts[qualname]
        if not facts.thread_start_lines:
            continue
        first_start = min(facts.thread_start_lines)
        info = analysis.graph.functions[qualname]
        for node in facts.pool_ctor_nodes:
            if node.lineno > first_start:
                yield info.file.finding(
                    "R063",
                    node,
                    f"process pool created in {_short(qualname)}() after a "
                    f"thread was started on line {first_start}; fork "
                    f"snapshots held locks and in-flight state of threads "
                    f"that do not exist in the child — create pools before "
                    f"starting threads",
                )
        for callee, call, _file in analysis.graph.callsites.get(qualname, ()):
            if (
                call.lineno > first_start
                and callee in analysis.creates_pool_transitive
            ):
                yield info.file.finding(
                    "R063",
                    call,
                    f"{_short(qualname)}() calls {_short(callee)}() after "
                    f"starting a thread on line {first_start}, and "
                    f"{_short(callee)}() creates a process pool; fork after "
                    f"threads snapshots locks mid-flight — create pools "
                    f"before starting threads",
                )


@rule("R065", scope="project")
def check_blocking_under_lock(project: Project) -> Iterator[Finding]:
    """Flag blocking calls made while a lock is held (warning)."""
    analysis = threads_for(project)
    for qualname in sorted(analysis.facts):
        facts = analysis.facts[qualname]
        info = analysis.graph.functions[qualname]
        for lock, call in facts.blocking_under_lock:
            yield info.file.finding(
                "R065",
                call,
                f"blocking call {ast.unparse(call.func)}() in "
                f"{_short(qualname)}() while holding '{lock}'; every other "
                f"thread contending for the lock now waits on this I/O — "
                f"move the blocking work outside the critical section",
            )


@rule("R066", scope="project")
def check_leaked_threads(project: Project) -> Iterator[Finding]:
    """Flag non-daemon threads that outlive their function (warning)."""
    analysis = threads_for(project)
    for qualname in sorted(analysis.facts):
        facts = analysis.facts[qualname]
        info = analysis.graph.functions[qualname]
        for node, local in facts.leaked_threads:
            yield info.file.finding(
                "R066",
                node,
                f"non-daemon thread '{local}' started in {_short(qualname)}() "
                f"is neither joined nor handed to a caller; nothing can join "
                f"it, so drain/exit blocks on it — join it, store it, or "
                f"make it daemon=True",
            )


# Re-exported for the tests' convenience.
__all__ = [
    "ThreadAnalysis",
    "check_unlocked_shared_writes",
    "check_unpaired_acquire",
    "check_lock_order_inversion",
    "check_fork_after_threads",
    "check_blocking_under_lock",
    "check_leaked_threads",
]
