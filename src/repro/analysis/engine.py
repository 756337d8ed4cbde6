"""The analysis driver: file discovery, rule dispatch, gating.

:func:`analyze_paths` is the library entry point behind the ``repro
lint`` CLI subcommand: it expands the given files/directories into a
Python file set, parses each file once, runs every file-scope rule per
file and every project-scope rule once, then applies inline
``# repro: noqa[Rxxx]`` suppressions before returning an
:class:`~repro.analysis.findings.AnalysisReport`.

:func:`analyze_source` runs the file-scope rules over an in-memory
source text — the fixture-test entry point.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from .findings import AnalysisReport, Finding
from .rules import Project, SourceFile, all_rules
from .suppressions import suppressed_at


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding ``pyproject.toml``.

    Falls back to ``start`` itself (its parent for files) when no marker
    is found; the root anchors relative paths and docs lookups.
    """
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return probe


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            if any(part.startswith(".") for part in candidate.parts):
                continue
            seen.setdefault(candidate.resolve(), None)
    return sorted(seen)


def _load_file(path: Path, root: Path) -> SourceFile | Finding:
    """Parse one file; on syntax errors return an ``R000`` finding."""
    try:
        relpath = path.relative_to(root).as_posix()
    except ValueError:
        relpath = path.as_posix()
    source = path.read_text()
    try:
        return SourceFile.parse(path, relpath, source)
    except SyntaxError as exc:
        return Finding(
            code="R000",
            path=relpath,
            line=exc.lineno or 0,
            message=f"file does not parse: {exc.msg}",
        )


def _apply_suppressions(
    findings: Iterable[Finding], files: Sequence[SourceFile]
) -> tuple[Finding, ...]:
    by_path = {f.relpath: f for f in files}
    marked = []
    for finding in findings:
        file = by_path.get(finding.path)
        if file is not None and suppressed_at(
            file.suppressions, finding.line, finding.code
        ):
            finding = replace(finding, suppressed=True)
        marked.append(finding)
    return tuple(marked)


def analyze_paths(
    paths: Sequence[Path | str],
    *,
    root: Path | None = None,
) -> AnalysisReport:
    """Run every rule over the given files/directories.

    ``root`` defaults to the nearest ancestor with a ``pyproject.toml``.
    """
    started = time.perf_counter()
    resolved = [Path(p) for p in paths]
    missing = [p for p in resolved if not p.exists()]
    if missing:
        raise FileNotFoundError(f"no such file or directory: {missing[0]}")
    files = iter_python_files(resolved)
    if root is None:
        root = find_project_root(files[0] if files else Path.cwd())

    registry = all_rules()
    file_rules = registry.file_rules()

    sources: list[SourceFile] = []
    findings: list[Finding] = []
    checks = 0
    for path in files:
        loaded = _load_file(path, root)
        checks += 1  # the parse itself is the R000 check
        if isinstance(loaded, Finding):
            findings.append(loaded)
        else:
            sources.append(loaded)

    for source in sources:
        for file_rule in file_rules:
            checks += 1
            findings.extend(file_rule.check(source))

    project = Project(root=root, files=tuple(sources))
    for project_rule in registry.project_rules():
        checks += 1
        findings.extend(project_rule.check(project))

    return AnalysisReport(
        findings=_apply_suppressions(findings, sources),
        files=len(files),
        checks=checks,
        duration_seconds=time.perf_counter() - started,
    )


def analyze_source(source: str, filename: str = "fixture.py") -> tuple[Finding, ...]:
    """Run the file-scope rules over an in-memory source text.

    Suppression markers in the text are honored; the project-scope
    rules are not involved.  This is the entry point the
    per-rule fixture tests use.
    """
    registry = all_rules()
    try:
        file = SourceFile.parse(Path(filename), filename, source)
    except SyntaxError as exc:
        return (
            Finding(
                code="R000",
                path=filename,
                line=exc.lineno or 0,
                message=f"file does not parse: {exc.msg}",
            ),
        )
    findings: list[Finding] = []
    for file_rule in registry.file_rules():
        findings.extend(file_rule.check(file))
    return _apply_suppressions(findings, [file])
