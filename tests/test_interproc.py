"""Tests for the interprocedural analysis layer and the lint report formats.

Covers: the project-wide call graph the concurrency pack builds on
(qualnames, import/re-export resolution, method dispatch, decorator
transparency, reference edges), the unit-suffix table of the unit pack,
the SARIF 2.1.0 export, content-addressed fingerprints, and the lint
wall-time budget.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Finding, analyze_paths
from repro.analysis.callgraph import build_callgraph
from repro.analysis.rules import Project, SourceFile, module_name
from repro.analysis.unit_rules import name_unit
from repro.cli import main
from repro.report.diagnostics import validate_sarif_payload
from repro.report.sarif import FINGERPRINT_KEY, sarif_payload

REPO_ROOT = Path(__file__).resolve().parent.parent


def active_codes(findings) -> set[str]:
    """Codes of the findings that still gate."""
    return {f.code for f in findings if f.active}


def mini_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a throwaway project (with a pyproject.toml root marker)."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='fixture'\n")
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def parse_project(files: dict[str, str]) -> Project:
    """Build an in-memory Project from {relpath: source} (no disk)."""
    sources = tuple(
        SourceFile.parse(Path(rel), rel, text) for rel, text in files.items()
    )
    return Project(root=Path("."), files=sources)


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------


def test_module_name_strips_src_and_init() -> None:
    assert module_name("src/repro/experiments/cache.py") == "repro.experiments.cache"
    assert module_name("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name("pkg/mod.py") == "pkg.mod"


def test_callgraph_direct_and_imported_calls() -> None:
    project = parse_project(
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n\ndef top():\n    return helper()\n",
            "pkg/b.py": "from pkg.a import helper\n\ndef caller():\n    return helper()\n",
        }
    )
    graph = build_callgraph(project)
    assert "pkg.a.helper" in graph.callees("pkg.a.top")
    assert "pkg.a.helper" in graph.callees("pkg.b.caller")


def test_callgraph_relative_import_and_reexport() -> None:
    project = parse_project(
        {
            "pkg/__init__.py": "from .inner import worker\n",
            "pkg/inner.py": "def worker():\n    return 0\n",
            "pkg/user.py": (
                "from . import worker\n"
                "from .inner import worker as w2\n"
                "def a():\n    return worker()\n"
                "def b():\n    return w2()\n"
            ),
            "other.py": "import pkg\n\ndef c():\n    return pkg.worker()\n",
        }
    )
    graph = build_callgraph(project)
    assert "pkg.inner.worker" in graph.callees("pkg.user.a")
    assert "pkg.inner.worker" in graph.callees("pkg.user.b")
    # attribute access through the package re-export resolves too
    assert "pkg.inner.worker" in graph.callees("other.c")


def test_callgraph_method_dispatch_and_qualnames() -> None:
    project = parse_project(
        {
            "pkg/m.py": (
                "class Manager:\n"
                "    def plan(self):\n"
                "        return self._inner()\n"
                "    def _inner(self):\n"
                "        return 1\n"
            ),
        }
    )
    graph = build_callgraph(project)
    assert "pkg.m.Manager.plan" in graph.functions
    assert graph.functions["pkg.m.Manager.plan"].cls == "Manager"
    assert "pkg.m.Manager._inner" in graph.callees("pkg.m.Manager.plan")


def test_callgraph_decorated_functions_keep_identity() -> None:
    project = parse_project(
        {
            "pkg/d.py": (
                "import functools\n"
                "from functools import lru_cache\n"
                "@lru_cache(maxsize=None)\n"
                "def cached():\n    return 1\n"
                "@functools.wraps(cached)\n"
                "def wrapper():\n    return cached()\n"
                "def entry():\n    return wrapper()\n"
            ),
        }
    )
    graph = build_callgraph(project)
    assert "pkg.d.cached" in graph.callees("pkg.d.wrapper")
    assert "pkg.d.wrapper" in graph.callees("pkg.d.entry")


def test_callgraph_reference_edges_for_escaping_functions() -> None:
    project = parse_project(
        {
            "pkg/p.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def worker(x):\n    return x\n"
                "def init():\n    pass\n"
                "def run():\n"
                "    with ProcessPoolExecutor(initializer=init) as pool:\n"
                "        return pool.submit(worker, 1)\n"
            ),
        }
    )
    graph = build_callgraph(project)
    assert "pkg.p.worker" in graph.callees("pkg.p.run")
    assert "pkg.p.init" in graph.callees("pkg.p.run")


# ----------------------------------------------------------------------
# Unit suffixes (R003, R004)
# ----------------------------------------------------------------------


def test_name_unit_suffixes_and_rates() -> None:
    assert name_unit("tile_bytes") == "bytes"
    assert name_unit("nbytes") == "bytes"
    assert name_unit("glb_kb") == "kib"
    assert name_unit("energy_pj") == "pj"
    assert name_unit("ifmap_elements") == "elems"
    # a rate is no integer-unit quantity: bytes / bytes_per_cycle is fine
    assert name_unit("bytes_per_cycle") is None
    assert name_unit("bytes_per_elem") is None
    assert name_unit("alpha") is None


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------


def test_sarif_payload_validates_and_carries_fingerprints(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(glb_bytes: int) -> int:\n"
                "    tile_bytes = glb_bytes / 2\n"
                "    return tile_bytes\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    payload = sarif_payload(report)
    assert validate_sarif_payload(payload) == []
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    result = next(r for r in run["results"] if r["ruleId"] == "R003")
    fp = result["partialFingerprints"][FINGERPRINT_KEY]
    (finding,) = [f for f in report if f.code == "R003"]
    assert fp == finding.fingerprint()
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "R003" in rule_ids


def test_sarif_marks_suppressed_findings(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(glb_bytes: int) -> int:\n"
                "    tile_bytes = glb_bytes / 2  # repro: noqa[R003] -- ok\n"
                "    return tile_bytes\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    payload = sarif_payload(report)
    result = next(
        r for r in payload["runs"][0]["results"] if r["ruleId"] == "R003"
    )
    assert result["suppressions"][0]["kind"] == "inSource"


def test_sarif_cli_output_validates(tmp_path: Path, capsys) -> None:
    root = mini_project(
        tmp_path, {"pkg/x.py": "def f():\n    return 1\n"}
    )
    code = main(["lint", str(root), "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert validate_sarif_payload(payload) == []
    assert payload["version"] == "2.1.0"


def test_sarif_validator_rejects_malformed() -> None:
    assert validate_sarif_payload({"version": "2.1.0"})  # no runs
    bad = {
        "version": "2.0.0",
        "runs": [
            {
                "tool": {"driver": {"name": "x", "rules": []}},
                "results": [{"ruleId": 5}],
            }
        ],
    }
    problems = validate_sarif_payload(bad)
    assert any("version" in p for p in problems)
    assert any("ruleId" in p for p in problems)


# ----------------------------------------------------------------------
# Content-addressed fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_survives_line_and_message_changes() -> None:
    a = Finding(
        code="R011", path="m.py", line=3, message="old wording",
        snippet="    x = os.environ.get('K')",
    )
    b = Finding(
        code="R011", path="m.py", line=99, message="new wording",
        snippet="x = os.environ.get('K')",  # re-indented
    )
    assert a.fingerprint() == b.fingerprint()
    changed = Finding(
        code="R011", path="m.py", line=3, message="old wording",
        snippet="x = os.getenv('K')",
    )
    assert a.fingerprint() != changed.fingerprint()


def test_findings_carry_source_snippets(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(glb_bytes: int) -> int:\n"
                "    tile_bytes = glb_bytes / 2\n"
                "    return tile_bytes\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    (finding,) = [f for f in report if f.code == "R003"]
    assert finding.snippet.strip() == "tile_bytes = glb_bytes / 2"
    assert finding.normalized_snippet() == "tile_bytes = glb_bytes / 2"


# ----------------------------------------------------------------------
# Wall-time budget
# ----------------------------------------------------------------------


def test_report_measures_wall_time(tmp_path: Path) -> None:
    root = mini_project(tmp_path, {"pkg/x.py": "def f():\n    return 1\n"})
    report = analyze_paths([root], root=root)
    assert report.duration_seconds > 0.0
    assert "wall time" in report.render()


def test_cli_max_seconds_budget_gates(tmp_path: Path, capsys) -> None:
    root = mini_project(tmp_path, {"pkg/x.py": "def f():\n    return 1\n"})
    assert main(["lint", str(root), "--max-seconds", "60"]) == 0
    assert main(["lint", str(root), "--max-seconds", "0.000001"]) == 1
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
def test_cli_max_seconds_must_be_finite_and_positive(tmp_path: Path, capsys, budget) -> None:
    """``nan``/``inf`` would pass any run and ``0``/``-1`` fail every run."""
    root = mini_project(tmp_path, {"pkg/x.py": "def f():\n    return 1\n"})
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(root), "--max-seconds", budget])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"repro lint: error: argument --max-seconds: must be a finite number > 0, "
        f"got {budget!r}"
    ]
