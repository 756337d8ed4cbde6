"""Rule registry and analysis contexts.

A :class:`Rule` binds a catalog code to a checker function.  Checkers
come in two scopes:

* ``file`` — called once per :class:`SourceFile` with that file's parsed
  AST; this is where the unit-safety and determinism packs live.
* ``project`` — called once per :class:`Project` with every parsed file
  and the repository root; this is where cross-file registry-consistency
  checks live.

Rule modules self-register at import time via the :func:`rule`
decorator; :func:`all_rules` imports the packs and returns the frozen
registry.  Registration validates that every code exists in the
:mod:`~repro.analysis.codes` catalog and is bound at most once — the
registry itself satisfies the ``R020`` discipline it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .codes import RULE_TITLES
from .findings import Finding, severity_of
from .suppressions import Suppression, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import CallGraph


def module_name(relpath: str) -> str:
    """Dotted module name of a project-relative ``.py`` path.

    ``src/repro/experiments/cache.py`` → ``repro.experiments.cache``;
    a package ``__init__.py`` maps to the package itself.
    """
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file handed to file-scope checkers."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    suppressions: tuple[Suppression, ...] = ()

    @classmethod
    def parse(cls, path: Path, relpath: str, source: str) -> "SourceFile":
        """Parse a source text (raises :class:`SyntaxError` on bad input)."""
        return cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            suppressions=parse_suppressions(source),
        )

    @cached_property
    def module(self) -> str:
        """Dotted module name of the file (see :func:`module_name`)."""
        return module_name(self.relpath)

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Local alias → dotted path for every import in the file.

        ``import numpy as np`` maps ``np → numpy``; ``from random import
        choice`` maps ``choice → random.choice``; ``from .x import y``
        resolves against the file's own package.  Built once per file
        and shared by every rule that resolves names.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        head = a.name.split(".")[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = ".".join(p for p in (self._package(node.level), base) if p)
                for a in node.names:
                    if a.name != "*":
                        aliases[a.asname or a.name] = f"{base}.{a.name}" if base else a.name
        return aliases

    def _package(self, level: int) -> str:
        """Package a ``from .``-import of ``level`` dots resolves against."""
        parts = self.module.split(".") if self.module else []
        if not self.relpath.replace("\\", "/").endswith("__init__.py") and parts:
            parts = parts[:-1]
        drop = level - 1
        if drop:
            parts = parts[:-drop] if drop < len(parts) else []
        return ".".join(parts)

    def finding(self, code: str, node: ast.AST | int, message: str) -> Finding:
        """Build a finding anchored to an AST node (or raw line number).

        The anchored source line rides along as the finding's snippet,
        which is what the content-addressed fingerprint hashes
        (so findings survive edits that merely move them).
        """
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        lines = self.source.splitlines()
        snippet = lines[line - 1] if 1 <= line <= len(lines) else ""
        return Finding(
            code=code,
            path=self.relpath,
            line=line,
            message=message,
            severity=severity_of(code),
            snippet=snippet,
        )


@dataclass(frozen=True)
class Project:
    """The whole analyzed file set, handed to project-scope checkers."""

    root: Path
    files: tuple[SourceFile, ...]

    def find(self, rel_suffix: str) -> SourceFile | None:
        """The analyzed file whose relpath ends with ``rel_suffix``."""
        for f in self.files:
            if f.relpath.endswith(rel_suffix):
                return f
        return None

    def doc_text(self, relpath: str) -> str | None:
        """Text of a repo document (``docs/…``), or None when absent."""
        path = self.root / relpath
        try:
            return path.read_text()
        except OSError:
            return None

    def finding(self, code: str, relpath: str, line: int, message: str) -> Finding:
        """Build a finding anchored to an arbitrary project file/line.

        When ``relpath`` names an analyzed source file, the anchored
        line's text rides along as the finding's snippet (the basis of
        the content-addressed fingerprint).
        """
        snippet = ""
        for file in self.files:
            if file.relpath == relpath:
                lines = file.source.splitlines()
                if 1 <= line <= len(lines):
                    snippet = lines[line - 1]
                break
        return Finding(
            code=code,
            path=relpath,
            line=line,
            message=message,
            severity=severity_of(code),
            snippet=snippet,
        )

    def callgraph(self) -> "CallGraph":
        """The project-wide call graph, built once and cached.

        Both interprocedural packs (unit-flow and determinism-
        reachability) share the same graph, so it is memoized on the
        project instance.
        """
        from .callgraph import build_callgraph

        cached: "CallGraph | None" = getattr(self, "_callgraph_cache", None)
        if cached is None:
            cached = build_callgraph(self)
            object.__setattr__(self, "_callgraph_cache", cached)
        return cached


#: Checker signature: file-scope rules take a SourceFile, project-scope
#: rules take a Project; both yield findings.
Checker = Callable[..., Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: a catalog code bound to a checker function."""

    code: str
    scope: str  # "file" | "project"
    check: Checker

    @property
    def title(self) -> str:
        """Catalog title of the rule's code."""
        return RULE_TITLES[self.code]


@dataclass
class RuleRegistry:
    """Mutable registry the rule packs populate at import time."""

    rules: dict[str, Rule] = field(default_factory=dict)

    def register(self, code: str, scope: str, check: Checker) -> None:
        """Bind ``code`` to ``check`` (rejects unknown/duplicate codes)."""
        if code not in RULE_TITLES:
            raise ValueError(f"rule code {code!r} is not in the catalog")
        if code in self.rules:
            raise ValueError(f"rule code {code!r} registered twice")
        if scope not in ("file", "project"):
            raise ValueError(f"unknown rule scope {scope!r}")
        self.rules[code] = Rule(code=code, scope=scope, check=check)

    def __iter__(self) -> Iterator[Rule]:
        return iter(sorted(self.rules.values(), key=lambda r: r.code))

    def file_rules(self) -> tuple[Rule, ...]:
        """All file-scope rules, in code order."""
        return tuple(r for r in self if r.scope == "file")

    def project_rules(self) -> tuple[Rule, ...]:
        """All project-scope rules, in code order."""
        return tuple(r for r in self if r.scope == "project")


#: The process-wide registry the packs register into.
REGISTRY = RuleRegistry()


def rule(code: str, scope: str = "file") -> Callable[[Checker], Checker]:
    """Decorator registering a checker under a catalog code."""

    def wrap(check: Checker) -> Checker:
        REGISTRY.register(code, scope, check)
        return check

    return wrap


def all_rules() -> RuleRegistry:
    """Import the rule packs and return the populated registry."""
    from . import (
        concurrency_rules,
        determinism_rules,
        obs_rules,
        reach_rules,
        registry_rules,
        unit_rules,
        unitflow,
    )

    assert (
        concurrency_rules
        and determinism_rules
        and obs_rules
        and reach_rules
        and registry_rules
        and unit_rules
        and unitflow
    )  # imported to register
    return REGISTRY
