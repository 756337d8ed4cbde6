"""Registry-consistency rule pack (``R020``–``R023``, project scope).

These rules check cross-file invariants that no per-file linter can see:
the diagnostic catalogs (``V0xx`` in :mod:`repro.verify.codes`, ``R0xx``
in :mod:`repro.analysis.codes`) against their raise sites and
documentation tables, the :class:`~repro.policies.base.Policy` class set
against :mod:`repro.policies.registry`, and the experiment ``ARTIFACTS``
registry against ``EXPERIMENTS.md``.

Each rule no-ops gracefully when its anchor file is outside the analyzed
set (so fixture projects and partial runs do not produce noise), but is
fully armed whenever ``src/repro`` is linted — the CI configuration.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .findings import Finding
from .rules import Project, SourceFile, rule

_CODE_PATTERN = re.compile(r"^[VR]\d{3}$")
_DOC_TABLE_ROW = re.compile(r"\|\s*([VR]\d{3})\s*\|")

#: catalog anchor → (defining file suffix, doc file, title dict, desc dict).
_CATALOGS: tuple[tuple[str, str, str, str], ...] = (
    ("V", "verify/codes.py", "docs/verification.md", "CODE_TITLES|CODE_DESCRIPTIONS"),
    ("R", "analysis/codes.py", "docs/static-analysis.md", "RULE_TITLES|RULE_DESCRIPTIONS"),
)


def _dict_literal(tree: ast.Module, var_name: str) -> ast.Dict | None:
    """The dict literal assigned to a module-level name, if present."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == var_name
                and isinstance(value, ast.Dict)
            ):
                return value
    return None


def _dict_keys(literal: ast.Dict) -> list[tuple[str, int]]:
    """String keys (with line numbers) of a dict literal, in order."""
    keys = []
    for key in literal.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append((key.value, key.lineno))
    return keys


def _code_constants(file: SourceFile) -> list[tuple[str, int]]:
    """Every standalone ``V0xx``/``R0xx`` string constant in a file."""
    found = []
    for node in ast.walk(file.tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _CODE_PATTERN.match(node.value)
        ):
            found.append((node.value, node.lineno))
    return found


def _catalog_data(
    project: Project, file_suffix: str, names: str
) -> tuple[SourceFile, dict[str, int], dict[str, int], list[tuple[str, int]]] | None:
    """Parsed catalog file: (file, title keys, desc keys, duplicate keys)."""
    file = project.find(file_suffix)
    if file is None:
        return None
    title_name, desc_name = names.split("|")
    titles_lit = _dict_literal(file.tree, title_name)
    descs_lit = _dict_literal(file.tree, desc_name)
    if titles_lit is None or descs_lit is None:
        return None
    titles: dict[str, int] = {}
    duplicates: list[tuple[str, int]] = []
    for code, line in _dict_keys(titles_lit):
        if code in titles:
            duplicates.append((code, line))
        else:
            titles[code] = line
    descs = dict(_dict_keys(descs_lit))
    return file, titles, descs, duplicates


@rule("R020", scope="project")
def check_catalog_consistency(project: Project) -> Iterator[Finding]:
    """Each defined code: unique, described, raised somewhere, documented."""
    for prefix, suffix, doc_rel, names in _CATALOGS:
        data = _catalog_data(project, suffix, names)
        if data is None:
            continue
        file, titles, descs, duplicates = data
        for code, line in duplicates:
            yield project.finding(
                "R020", file.relpath, line, f"{code} defined more than once in the catalog"
            )
        raised: set[str] = set()
        for other in project.files:
            if other is file:
                continue
            raised.update(code for code, _ in _code_constants(other))
        doc = project.doc_text(doc_rel)
        documented = set(_DOC_TABLE_ROW.findall(doc)) if doc is not None else None
        for code, line in sorted(titles.items()):
            if code not in descs:
                yield project.finding(
                    "R020", file.relpath, line, f"{code} has a title but no description"
                )
            if code not in raised:
                yield project.finding(
                    "R020",
                    file.relpath,
                    line,
                    f"{code} is defined but never raised by any analyzed source file",
                )
            if documented is not None and code not in documented:
                yield project.finding(
                    "R020",
                    file.relpath,
                    line,
                    f"{code} is missing from the {doc_rel} catalog table",
                )
        for code, line in sorted(descs.items()):
            if code not in titles:
                yield project.finding(
                    "R020", file.relpath, line, f"{code} has a description but no title"
                )


def _policy_classes(project: Project) -> Iterator[tuple[SourceFile, ast.ClassDef]]:
    """Every class under ``policies/`` that subclasses ``Policy``."""
    for file in project.files:
        if "policies/" not in file.relpath.replace("\\", "/"):
            continue
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                base_name = (
                    base.id
                    if isinstance(base, ast.Name)
                    else base.attr
                    if isinstance(base, ast.Attribute)
                    else None
                )
                if base_name == "Policy":
                    yield file, node
                    break


@rule("R021", scope="project")
def check_policy_registration(project: Project) -> Iterator[Finding]:
    """Every concrete Policy subclass appears in policies/registry.py."""
    registry = project.find("policies/registry.py")
    if registry is None:
        return
    referenced = {
        node.id for node in ast.walk(registry.tree) if isinstance(node, ast.Name)
    }
    for node in ast.walk(registry.tree):
        if isinstance(node, ast.ImportFrom):
            referenced.update(a.asname or a.name for a in node.names)
    for file, cls in _policy_classes(project):
        if file is registry:
            continue
        if cls.name not in referenced:
            yield project.finding(
                "R021",
                file.relpath,
                cls.lineno,
                f"Policy subclass '{cls.name}' is not referenced by "
                f"policies/registry.py; it silently drops out of "
                f"Algorithm 1's candidate set",
            )


@rule("R022", scope="project")
def check_artifact_registry(project: Project) -> Iterator[Finding]:
    """ARTIFACTS ids are unique and each is listed in EXPERIMENTS.md."""
    runner = project.find("experiments/runner.py")
    if runner is None:
        return
    literal = _dict_literal(runner.tree, "ARTIFACTS")
    if literal is None:
        return
    seen: dict[str, int] = {}
    for artifact_id, line in _dict_keys(literal):
        if artifact_id in seen:
            yield project.finding(
                "R022",
                runner.relpath,
                line,
                f"artifact id '{artifact_id}' registered twice (earlier "
                f"entry at line {seen[artifact_id]} is silently overridden)",
            )
        else:
            seen[artifact_id] = line
    doc = project.doc_text("EXPERIMENTS.md")
    if doc is None:
        return
    for artifact_id, line in sorted(seen.items()):
        if artifact_id not in doc:
            yield project.finding(
                "R022",
                runner.relpath,
                line,
                f"artifact id '{artifact_id}' is not listed in EXPERIMENTS.md",
            )


@rule("R023", scope="project")
def check_unknown_code_references(project: Project) -> Iterator[Finding]:
    """No source/doc reference to a code absent from its catalog."""
    for prefix, suffix, doc_rel, names in _CATALOGS:
        data = _catalog_data(project, suffix, names)
        if data is None:
            continue
        file, titles, descs, _ = data
        defined = set(titles) | set(descs)
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
            doc_lines = doc.splitlines()
            for lineno, text in enumerate(doc_lines, start=1):
                for code in _DOC_TABLE_ROW.findall(text):
                    if code.startswith(prefix) and code not in defined:
                        yield project.finding(
                            "R023",
                            doc_rel,
                            lineno,
                            f"documentation table lists {code}, which is not "
                            f"defined in {file.relpath}",
                        )
