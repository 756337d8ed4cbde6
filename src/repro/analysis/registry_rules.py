"""Code-reference rule (``R023``, project scope).

The two diagnostic catalogs (``V0xx`` in :mod:`repro.verify.codes`,
``R0xx`` in :mod:`repro.analysis.codes`) are referenced from raise sites,
documentation tables and ``# repro: noqa[...]`` markers all over the
tree.  ``R023`` flags a reference to a code its catalog does not define:
a stale code in a check or a doc is a dead identifier, and a stale or
misspelled code in a marker silences nothing while reading like a
sign-off.

The rule no-ops when a catalog file is outside the analyzed set (so
fixture projects and partial runs do not produce noise), but is fully
armed whenever ``src/repro`` is linted — the CI configuration.

The catalogs' own consistency needs no rule: tests require every code to
have a title, a description and a documentation row, the verifier's
codes to be triggerable, every lint code but ``R000`` to be bound to a
rule, every ``Policy`` subclass to be registered, and every experiment
artifact to be listed in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .findings import Finding
from .rules import Project, SourceFile, rule

_CODE_PATTERN = re.compile(r"^[VR]\d{3}$")
_DOC_TABLE_ROW = re.compile(r"\|\s*([VR]\d{3})\s*\|")

#: prefix → (defining file suffix, doc file, title dict, description dict).
_CATALOGS: tuple[tuple[str, str, str, str, str], ...] = (
    ("V", "verify/codes.py", "docs/verification.md", "CODE_TITLES", "CODE_DESCRIPTIONS"),
    ("R", "analysis/codes.py", "docs/static-analysis.md", "RULE_TITLES", "RULE_DESCRIPTIONS"),
)


def _dict_keys(tree: ast.Module, var_name: str) -> set[str]:
    """String keys of the dict literal bound to a module-level name."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Dict) and any(
            isinstance(t, ast.Name) and t.id == var_name for t in targets
        ):
            return {
                key.value
                for key in value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return set()


def _code_constants(file: SourceFile) -> Iterator[tuple[str, int]]:
    """Every standalone ``V0xx``/``R0xx`` string constant in a file."""
    for node in ast.walk(file.tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _CODE_PATTERN.match(node.value)
        ):
            yield node.value, node.lineno


@rule("R023", scope="project")
def check_unknown_code_references(project: Project) -> Iterator[Finding]:
    """No source/doc reference to a code absent from its catalog."""
    for prefix, suffix, doc_rel, titles, descriptions in _CATALOGS:
        file = project.find(suffix)
        if file is None:
            continue
        defined = _dict_keys(file.tree, titles) | _dict_keys(file.tree, descriptions)
        if not defined:
            continue
        for other in project.files:
            if other is file:
                continue
            for code, line in _code_constants(other):
                if code.startswith(prefix) and code not in defined:
                    yield project.finding(
                        "R023",
                        other.relpath,
                        line,
                        f"reference to {code}, which is not defined in "
                        f"{file.relpath}",
                    )
        if prefix == "R":  # noqa markers silence lint findings only
            for other in project.files:
                for marker in other.suppressions:
                    for code in sorted(marker.codes - defined):
                        yield project.finding(
                            "R023",
                            other.relpath,
                            marker.line,
                            f"noqa marker names {code}, which is not defined "
                            f"in {file.relpath}; a stale or misspelled code "
                            f"silences nothing",
                        )
        doc = project.doc_text(doc_rel)
        if doc is not None:
            for lineno, text in enumerate(doc.splitlines(), start=1):
                for code in _DOC_TABLE_ROW.findall(text):
                    if code.startswith(prefix) and code not in defined:
                        yield project.finding(
                            "R023",
                            doc_rel,
                            lineno,
                            f"documentation table lists {code}, which is not "
                            f"defined in {file.relpath}",
                        )
