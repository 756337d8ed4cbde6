"""Tests for the interprocedural analysis layer.

Covers: the project-wide call graph (qualnames, import/re-export
resolution, method dispatch, decorator transparency, reference edges),
the unit lattice and its transfer functions, the unit-flow rules
(R040–R043, R043 in every scope) and determinism-reachability rules
(R052–R053) on seeded
fixture packages, the SARIF 2.1.0 export, content-addressed
fingerprints, and the lint wall-time budget.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import Finding, analyze_paths
from repro.analysis.callgraph import build_callgraph
from repro.analysis.codes import RULE_PACKS
from repro.analysis.rules import Project, SourceFile, module_name
from repro.analysis.unitflow import (
    divide_units,
    join_units,
    multiply_units,
    name_unit,
)
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
    assert graph.functions["pkg.m.Manager.plan"].is_method
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


def test_callgraph_reachability_witness_chain() -> None:
    project = parse_project(
        {
            "pkg/r.py": (
                "def c():\n    return 0\n"
                "def b():\n    return c()\n"
                "def a():\n    return b()\n"
            ),
        }
    )
    graph = build_callgraph(project)
    chains = graph.reachable_from({"pkg.r.a"})
    assert chains["pkg.r.c"] == ("pkg.r.a", "pkg.r.b", "pkg.r.c")


# ----------------------------------------------------------------------
# Unit lattice
# ----------------------------------------------------------------------


def test_name_unit_suffixes_and_rates() -> None:
    assert name_unit("tile_bytes") == "bytes"
    assert name_unit("nbytes") == "bytes"
    assert name_unit("glb_kb") == "kib"
    assert name_unit("energy_pj") == "pj"
    assert name_unit("bytes_per_cycle") == "rate:bytes/cycles"
    assert name_unit("bytes_per_elem") == "rate:bytes/elems"
    assert name_unit("alpha") is None


def test_unit_transfer_functions() -> None:
    assert join_units("bytes", "bytes") == "bytes"
    assert join_units("bytes", "unitless") == "bytes"
    assert join_units("bytes", "elems") is None  # conflict → unknown result
    assert multiply_units("elems", "bytes") == "bytes"
    assert multiply_units("cycles", "rate:bytes/cycles") == "bytes"
    assert divide_units("bytes", "bytes") == "unitless"
    assert divide_units("bytes", "elems") == "rate:bytes/elems"
    assert divide_units("bytes", "rate:bytes/cycles") == "cycles"
    assert divide_units("bytes", None) is None  # unknown normalizer


# ----------------------------------------------------------------------
# Unit-flow rules (R040–R043)
# ----------------------------------------------------------------------


def test_r040_fires_on_cross_module_unit_mismatch(tmp_path: Path) -> None:
    """A _bytes value crossing a call boundary into an _elems parameter."""
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/size.py": (
                "def tile_bytes(n: int) -> int:\n"
                "    return n * 4\n"
            ),
            "pkg/plan.py": (
                "from pkg.size import tile_bytes\n"
                "def place(tile_elems: int) -> int:\n"
                "    return tile_elems\n"
                "def plan(n: int) -> int:\n"
                "    return place(tile_bytes(n))\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R040" in active_codes(report)
    (finding,) = [f for f in report if f.code == "R040"]
    assert "tile_elems" in finding.message and "bytes" in finding.message


def test_r041_fires_on_return_boundary_mismatch(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def glb_bytes(n_elems: int) -> int:\n"
                "    return n_elems\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R041" in active_codes(report)


def test_r042_fires_on_cross_unit_assignment(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(n_elems: int) -> int:\n"
                "    total_bytes = n_elems\n"
                "    return total_bytes\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R042" in active_codes(report)


def test_r043_fires_on_mix_seen_only_through_inference(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "def footprint_bytes() -> int:\n    return 64\n",
            "pkg/b.py": (
                "from pkg.a import footprint_bytes\n"
                "def latency_cycles() -> int:\n    return 10\n"
                "def mix() -> int:\n"
                "    total = footprint_bytes() + latency_cycles()\n"
                "    return total\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    (finding,) = [f for f in report.active if f.code == "R043"]
    assert "footprint_bytes()" in finding.message


def r043_lines(tmp_path: Path, source: str) -> list[int]:
    """Lines of the active R043 findings in a one-file fixture project."""
    root = mini_project(tmp_path, {"pkg/x.py": source})
    report = analyze_paths([root], root=root)
    return sorted(f.line for f in report.active if f.code == "R043")


def test_r043_fires_on_byte_element_addition(tmp_path: Path) -> None:
    src = "def fits(ifmap_bytes: int, halo_elems: int) -> int:\n"
    src += "    return ifmap_bytes + halo_elems\n"
    assert r043_lines(tmp_path, src) == [2]


def test_r043_fires_on_cross_unit_comparison(tmp_path: Path) -> None:
    src = "def over(tile_elems: int, glb_bytes: int) -> bool:\n"
    src += "    return tile_elems > glb_bytes\n"
    assert r043_lines(tmp_path, src) == [2]


def test_r043_clean_on_same_unit_math(tmp_path: Path) -> None:
    src = "def total(ifmap_bytes: int, filter_bytes: int) -> int:\n"
    src += "    return ifmap_bytes + filter_bytes\n"
    assert r043_lines(tmp_path, src) == []


def test_r043_fires_at_module_level(tmp_path: Path) -> None:
    src = "a_bytes = 4\nb_elems = 2\ntotal = a_bytes + b_elems\n"
    assert r043_lines(tmp_path, src) == [3]


def test_r043_fires_in_class_body(tmp_path: Path) -> None:
    src = (
        "class Budget:\n"
        "    glb_bytes = 1024\n"
        "    tile_elems = 64\n"
        "    spare = glb_bytes - tile_elems\n"
    )
    assert r043_lines(tmp_path, src) == [4]


def test_r043_fires_in_lambda_bodies(tmp_path: Path) -> None:
    src = (
        "mix = lambda a_bytes, b_elems: a_bytes + b_elems\n"
        "def order(items, n_elems):\n"
        "    return sorted(items, key=lambda x_bytes: x_bytes < n_elems)\n"
    )
    assert r043_lines(tmp_path, src) == [1, 3]


def test_r043_clean_on_rate_arithmetic(tmp_path: Path) -> None:
    src = (
        "def stalls(glb_bytes, bytes_per_cycle, latency_cycles):\n"
        "    return glb_bytes / bytes_per_cycle > latency_cycles\n"
        "def faster(bytes_per_cycle, peak_bytes_per_cycle):\n"
        "    return bytes_per_cycle < peak_bytes_per_cycle\n"
    )
    assert r043_lines(tmp_path, src) == []


def test_r040_fires_on_cast_misuse(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/arch/__init__.py": "",
            "pkg/arch/units.py": (
                "def kib(n: int) -> int:\n"
                "    return n * 1024\n"
                "def to_kib(nbytes: int) -> int:\n"
                "    return nbytes // 1024\n"
            ),
            "pkg/use.py": (
                "from pkg.arch.units import kib, to_kib\n"
                "def wrong(n_elems: int, buf_bytes: int) -> int:\n"
                "    return to_kib(n_elems) + kib(buf_bytes)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r040 = [f for f in report if f.code == "R040" and f.active]
    assert len(r040) == 2  # to_kib(elems) and kib(bytes) both flagged
    # the helpers themselves are sanctioned: no R041 on their bodies
    assert not any(
        f.code == "R041" and "units.py" in f.path for f in report
    )


def test_unitflow_clean_on_consistent_units(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "def tile_bytes(n_elems: int) -> int:\n    return n_elems * 4\n",
            "pkg/b.py": (
                "from pkg.a import tile_bytes\n"
                "def fits(budget_bytes: int, n_elems: int) -> bool:\n"
                "    return tile_bytes(n_elems) <= budget_bytes\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    unitflow = {code for code, pack in RULE_PACKS.items() if pack == "unitflow"}
    assert unitflow
    assert not active_codes(report) & unitflow


# ----------------------------------------------------------------------
# Determinism-reachability rules (R052–R053)
# ----------------------------------------------------------------------


def reach_codes(tmp_path: Path, source: str) -> set[str]:
    """Active R052/R053 codes of a one-file fixture project."""
    root = mini_project(tmp_path, {"pkg/k.py": source})
    report = analyze_paths([root], root=root)
    return active_codes(report) & {"R052", "R053"}


def test_r052_fires_on_set_iteration_in_key(tmp_path: Path) -> None:
    src = (
        "def make_key(parts: list[str]) -> str:\n"
        "    return ''.join(p for p in set(parts))\n"
    )
    assert reach_codes(tmp_path, src) == {"R052"}


def test_r052_clean_when_sorted(tmp_path: Path) -> None:
    src = (
        "def make_key(parts: list[str]) -> str:\n"
        "    return ''.join(p for p in sorted(set(parts)))\n"
    )
    assert reach_codes(tmp_path, src) == set()


def test_r053_fires_on_unsorted_dumps_in_digest(tmp_path: Path) -> None:
    src = (
        "import json\n\n"
        "def model_digest(payload: dict) -> str:\n"
        "    return json.dumps(payload)\n"
    )
    assert reach_codes(tmp_path, src) == {"R053"}


def test_r053_clean_with_sort_keys(tmp_path: Path) -> None:
    src = (
        "import json\n\n"
        "def model_digest(payload: dict) -> str:\n"
        "    return json.dumps(payload, sort_keys=True)\n"
    )
    assert reach_codes(tmp_path, src) == set()


def test_r053_clean_outside_digest_context(tmp_path: Path) -> None:
    src = (
        "import json\n\n"
        "def pretty(payload: dict) -> str:\n"
        "    return json.dumps(payload)\n"
    )
    assert reach_codes(tmp_path, src) == set()


def test_r052_r053_fire_in_nested_defs_lambdas_and_methods(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/k.py": (
                "import json\n"
                "class Planner:\n"
                "    def cache_key(self, parts, payload):\n"
                "        def members():\n"
                "            return [p for p in set(parts)]\n"
                "        encode = lambda d: json.dumps(d)\n"
                "        return str(members()) + encode(payload)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    lines = {(f.code, f.line) for f in report.active}
    assert {("R052", 5), ("R053", 6)} <= lines


def test_r052_r053_fire_on_helpers_below_key_functions(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/ser.py": (
                "import json\n"
                "def gather(items):\n"
                "    return [x for x in set(items)]\n"
                "def encode(payload):\n"
                "    return json.dumps(payload)\n"
                "def cache_key(items, payload):\n"
                "    return str(gather(items)) + encode(payload)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    findings = [f for f in report.active if f.code in ("R052", "R053")]
    assert {f.code for f in findings} == {"R052", "R053"}
    assert all(
        "cache_key -> " in f.message for f in findings
    ), "findings must carry the witness call chain"


def test_r053_noqa_at_source_line_suppresses(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/k.py": (
                "import json\n"
                "def make_key(payload):\n"
                "    return json.dumps(payload)  "
                "# repro: noqa[R053] -- test seam\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R053" not in active_codes(report)
    assert "R053" in {f.code for f in report.suppressed}


def test_reachability_clean_when_hazard_not_reachable(tmp_path: Path) -> None:
    src = (
        "def shuffle_demo(items):\n"
        "    return [x for x in set(items)]\n"
        "def make_key(name: str) -> str:\n"
        "    return name\n"
    )
    assert reach_codes(tmp_path, src) == set()


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------


def test_sarif_payload_validates_and_carries_fingerprints(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(a_bytes: int, b_elems: int) -> int:\n"
                "    return a_bytes + b_elems\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    payload = sarif_payload(report)
    assert validate_sarif_payload(payload) == []
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    result = next(r for r in run["results"] if r["ruleId"] == "R043")
    fp = result["partialFingerprints"][FINGERPRINT_KEY]
    (finding,) = [f for f in report if f.code == "R043"]
    assert fp == finding.fingerprint()
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "R043" in rule_ids


def test_sarif_marks_suppressed_findings(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(a_bytes: int, b_elems: int) -> int:\n"
                "    return a_bytes + b_elems  # repro: noqa[R043] -- ok\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    payload = sarif_payload(report)
    result = next(
        r for r in payload["runs"][0]["results"] if r["ruleId"] == "R043"
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
        code="R010", path="m.py", line=3, message="old wording",
        snippet="    x = random.random()",
    )
    b = Finding(
        code="R010", path="m.py", line=99, message="new wording",
        snippet="x = random.random()",  # re-indented
    )
    assert a.fingerprint() == b.fingerprint()
    changed = Finding(
        code="R010", path="m.py", line=3, message="old wording",
        snippet="x = random.SystemRandom().random()",
    )
    assert a.fingerprint() != changed.fingerprint()


def test_findings_carry_source_snippets(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(a_bytes: int, b_elems: int) -> int:\n"
                "    return a_bytes + b_elems\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    (finding,) = [f for f in report if f.code == "R043"]
    assert finding.snippet.strip() == "return a_bytes + b_elems"
    assert finding.normalized_snippet() == "return a_bytes + b_elems"


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
