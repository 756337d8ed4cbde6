"""Determinism-reachability rule pack (``R052``–``R053``, project scope).

Cache keys must serialize their inputs in a deterministic order, or
identical inputs fork the key between worker processes.  A per-file
check can only inspect functions whose *names* mark them as key
construction; the helpers they call are invisible to it.  This pack
walks the project call graph (:mod:`repro.analysis.callgraph`) from the
**cache-key roots** and flags order-unstable serialization anywhere on
the key path, each finding carrying a witness call chain.

Roots
-----
* **cache-key constructors** — functions whose names mark them as
  digest/key construction (``model_digest``, ``plan_cache_key``, …);
  the root itself sits at depth 0 of the walk, so its own body is
  checked like any helper's;
* **``plan_cached``** — the manager entry point whose results are
  persisted under those keys.

Rules
-----
* **R052** — unordered set iteration reachable from the cache-key path.
* **R053** — ``json.dumps`` without ``sort_keys=True`` reachable from
  the cache-key path.

Nondeterministic calls and environment reads are flagged wherever they
occur by the per-file R010/R011, so they need no reachability pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from .callgraph import CallGraph, own_nodes
from .determinism_rules import resolve_call_target
from .findings import Finding
from .rules import Project, rule

#: Function names that construct digests / cache keys (the key roots).
_DIGEST_CONTEXT = re.compile(r"digest|fingerprint|canonical|hash|(?:^|_)key")


@dataclass(frozen=True)
class _Source:
    """One hazardous construct found inside a function body."""

    kind: str  # "set" | "json"
    node: ast.AST
    detail: str


def _is_set_expr(node: ast.expr) -> bool:
    """Whether an expression evidently evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _function_sources(
    func: ast.AST, aliases: dict[str, str]
) -> list[_Source]:
    """Hazard sources inside one function's own body."""
    sources: list[_Source] = []
    for node in own_nodes(func):
        if isinstance(node, ast.Call):
            if resolve_call_target(node.func, aliases) != "json.dumps":
                continue
            sorts = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if not sorts:
                sources.append(_Source("json", node, "json.dumps without sort_keys"))
        else:
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    sources.append(
                        _Source("set", node, "iteration over an unordered set")
                    )
    return sources


class ReachAnalysis:
    """Shared reachability state for the R052/R053 checkers."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        roots = {
            qualname
            for qualname, info in graph.functions.items()
            if _DIGEST_CONTEXT.search(info.name.lower()) or info.name == "plan_cached"
        }
        #: reached qualname → witness chain, from the cache-key roots.
        self.reach_keys = graph.reachable_from(roots)
        #: reached qualname → hazard sources inside its own body.
        self.sources: dict[str, list[_Source]] = {}
        for qualname in self.reach_keys:
            info = graph.functions[qualname]
            found = _function_sources(info.node, info.file.aliases)
            if found:
                self.sources[qualname] = found


def reach_for(project: Project) -> ReachAnalysis:
    """The project's reachability state, computed once and cached."""
    graph = project.callgraph()
    cached: ReachAnalysis | None = getattr(graph, "_reach_cache", None)
    if cached is None:
        cached = ReachAnalysis(graph)
        setattr(graph, "_reach_cache", cached)
    return cached


def _short(qualname: str) -> str:
    """``qualname`` without its ``repro.`` prefix."""
    return qualname.removeprefix("repro.")


def _chain_str(chain: tuple[str, ...]) -> str:
    """Human-readable witness chain (``repro.`` prefixes dropped)."""
    return " -> ".join(_short(q) for q in chain)


def _emit(reach: ReachAnalysis, kind: str, code: str, describe: str) -> Iterator[Finding]:
    """Findings for every ``kind`` source on the cache-key path."""
    for qualname in sorted(reach.sources):
        info = reach.graph.functions[qualname]
        chain = reach.reach_keys[qualname]
        for source in reach.sources[qualname]:
            if source.kind != kind:
                continue
            yield info.file.finding(
                code,
                source.node,
                f"{source.detail} in {qualname}() is reachable from "
                f"determinism root {_chain_str(chain[:1])} "
                f"(call chain: {_chain_str(chain)}); {describe}",
            )


@rule("R052", scope="project")
def check_reachable_set_iteration(project: Project) -> Iterator[Finding]:
    """Flag unordered set iteration reachable from the cache-key path."""
    yield from _emit(
        reach_for(project),
        "set",
        "R052",
        "set order varies with PYTHONHASHSEED, so the serialized key "
        "diverges between worker processes",
    )


@rule("R053", scope="project")
def check_reachable_unsorted_json(project: Project) -> Iterator[Finding]:
    """Flag unsorted json.dumps reachable from the cache-key path."""
    yield from _emit(
        reach_for(project),
        "json",
        "R053",
        "dict order leaks into the serialized key; pass sort_keys=True",
    )
