"""Environment-read rule (``R011``).

The experiment engine (:mod:`repro.experiments.engine`) fans planning
work across a process pool on top of a content-addressed on-disk cache
(:mod:`repro.experiments.cache`), and the ``repro serve`` daemon answers
from the same cache.  A result that depends on the invoking shell's
environment is keyed as if it did not: the same key then stores
different bytes depending on who ran it.  ``R011`` flags ambient
environment reads anywhere in the library; intentional configuration
boundaries carry inline ``noqa[R011]`` markers with reasons.  No test
fails on an environment-gated code path, because the test runs never
set the variable; only this rule sees it.

The other determinism hazards need no rule, because runtime pins fail
on them:

* nondeterministic calls (clocks, RNGs, pids) in planning or in key
  construction change the pinned plan digests, the CLI goldens or the
  cache keys pinned under two hash seeds (``tests/test_cache_keys.py``);
* module-level state that leaks between calls changes an artifact's
  rows between two runs in one process (``tests/test_experiments.py``);
* unpicklable pool callables raise at both process-pool sites, and the
  test suite runs both with more than one job.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import resolve_call_target
from .findings import Finding
from .rules import SourceFile, rule

#: Environment-read call targets.
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


class _EnvironmentReadVisitor(ast.NodeVisitor):
    """Collect environment-read calls and ``os.environ[...]`` loads."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        self.aliases = file.aliases
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, read: str) -> None:
        self.findings.append(
            self.file.finding(
                "R011",
                node,
                f"environment read {read}; results now depend on the invoking shell",
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        """Flag calls whose resolved dotted target reads the environment."""
        target = resolve_call_target(node.func, self.aliases)
        if target in _ENV_READ_CALLS:
            self._flag(node, f"{target}()")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        """Flag ``os.environ[...]`` reads (stores are configuration)."""
        if (
            isinstance(node.ctx, ast.Load)
            and resolve_call_target(node.value, self.aliases) == "os.environ"
        ):
            self._flag(node, "os.environ[...]")
        self.generic_visit(node)


@rule("R011")
def check_environment_reads(file: SourceFile) -> Iterator[Finding]:
    """Flag ambient environment reads outside configuration boundaries."""
    visitor = _EnvironmentReadVisitor(file)
    visitor.visit(file.tree)
    yield from visitor.findings
