"""Repo-wide lint/type gate.

Runs ``ruff check`` and ``mypy --strict src/repro`` when those tools are
installed (they are in CI via the ``lint``/``typecheck`` extras) and skips
otherwise, so the tier-1 suite stays runnable in minimal environments.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run(cmd: list[str]) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        cmd, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600
    )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean() -> None:
    proc = _run(["ruff", "check", "src", "tests", "examples"])
    assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}\n{proc.stderr}"


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_clean() -> None:
    proc = _run([sys.executable, "-m", "mypy", "--strict", "src/repro"])
    assert proc.returncode == 0, f"mypy findings:\n{proc.stdout}\n{proc.stderr}"


def test_py_typed_marker_present() -> None:
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()


def test_trace_out_smoke_emits_schema_valid_trace(tmp_path: Path) -> None:
    """CI smoke: ``--trace-out`` writes a valid ``repro-telemetry/1`` file.

    Mirrors the CI telemetry step (``python -m repro.experiments ...
    --trace-out``); the emitted JSON must pass the schema validator and
    carry the Chrome ``trace_event`` keys Perfetto requires.
    """
    import json

    from repro.report.diagnostics import validate_telemetry_payload

    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "table2",
            "--trace-out",
            str(trace),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env={
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        },
    )
    assert proc.returncode == 0, f"smoke run failed:\n{proc.stdout}\n{proc.stderr}"
    assert "trace written to" in proc.stdout
    payload = json.loads(trace.read_text())
    assert validate_telemetry_payload(payload) == []
    assert payload["traceEvents"], "smoke trace carries no events"
    for event in payload["traceEvents"]:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)


def test_no_unused_imports() -> None:
    """Fallback for environments without ruff: flag obviously-unused imports.

    Conservative approximation of pyflakes F401 — a name imported at module
    top level that never appears again anywhere in the source text.  Names
    re-exported via ``__all__`` or imported under ``TYPE_CHECKING`` still
    appear textually, so they do not trip this.
    """
    import ast

    offenders: list[str] = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        imported: list[tuple[str, int]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported.append((name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imported.append((alias.asname or alias.name, node.lineno))
        for name, lineno in imported:
            if name == "annotations":
                continue
            # Count textual occurrences beyond the import line itself.
            uses = sum(
                1
                for i, line in enumerate(source.splitlines(), start=1)
                if i != lineno and name in line
            )
            if uses == 0:
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {name}")
    assert not offenders, "unused imports:\n" + "\n".join(offenders)
