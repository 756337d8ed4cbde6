"""Tests for the domain static analyzer (``repro lint``, R0xx codes).

Covers: one firing and one clean fixture per file-scope and registry
rule (the interprocedural packs are in ``test_interproc.py`` and
``test_concurrency_range.py``), inline suppressions,
the shared lint/verify JSON schema, the CLI exit
codes (including a deliberately seeded bug from each rule pack), and the
self-check that the repository's own sources lint clean.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULE_CODES,
    RULE_PACKS,
    RULE_TITLES,
    WARNING_CODES,
    Finding,
    analyze_paths,
    analyze_source,
    parse_suppressions,
    severity_of,
)
from repro.cli import main
from repro.report.diagnostics import SCHEMA_ID, validate_payload
from repro.verify.diagnostics import Severity

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


# ----------------------------------------------------------------------
# Catalog integrity
# ----------------------------------------------------------------------


def test_catalog_is_consistent() -> None:
    assert ALL_RULE_CODES == tuple(sorted(RULE_TITLES))
    assert set(RULE_PACKS) == set(RULE_TITLES)
    assert WARNING_CODES <= set(RULE_TITLES)
    assert severity_of("R004") is Severity.WARNING
    assert severity_of("R002") is Severity.ERROR


def test_unknown_code_rejected() -> None:
    with pytest.raises(ValueError):
        Finding(code="R999", path="x.py", line=1, message="nope")


def test_docs_list_every_rule_code() -> None:
    """docs/static-analysis.md has a table row per code, like verification.md."""
    doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    for code, title in RULE_TITLES.items():
        assert f"| {code} | {title} |" in doc, f"{code} missing from docs"


# ----------------------------------------------------------------------
# Engine pack (R000)
# ----------------------------------------------------------------------


def test_r000_fires_on_syntax_error() -> None:
    findings = analyze_source("def broken(:\n")
    assert [f.code for f in findings] == ["R000"]


def test_r000_clean_on_valid_source() -> None:
    assert "R000" not in active_codes(analyze_source("x = 1\n"))


# ----------------------------------------------------------------------
# Unit-safety pack (R002-R004); unit mixes are R043 (test_interproc.py)
# ----------------------------------------------------------------------


def test_r002_fires_on_bare_doubling() -> None:
    src = "def residency(tile_bytes: int) -> int:\n"
    src += "    return tile_bytes * 2\n"
    assert "R002" in active_codes(analyze_source(src))


def test_r002_clean_inside_prefetch_helper() -> None:
    src = "def prefetch_footprint(tile_bytes: int) -> int:\n"
    src += "    return tile_bytes * 2\n"
    assert "R002" not in active_codes(analyze_source(src))


def test_r002_clean_with_named_factor() -> None:
    src = "def residency(tile_bytes: int, factor: int) -> int:\n"
    src += "    return tile_bytes * factor\n"
    assert "R002" not in active_codes(analyze_source(src))


def test_r003_fires_on_true_division_into_bytes() -> None:
    src = "def f(n: int) -> int:\n    total_bytes = n / 4\n    return total_bytes\n"
    assert "R003" in active_codes(analyze_source(src))


def test_r003_clean_on_floor_division() -> None:
    src = "def f(n: int) -> int:\n    total_bytes = n // 4\n    return total_bytes\n"
    assert "R003" not in active_codes(analyze_source(src))


def test_r003_clean_on_unitless_ratio() -> None:
    src = "def f(n: int) -> float:\n    ratio = n / 4\n    return ratio\n"
    assert "R003" not in active_codes(analyze_source(src))


PROMOTED_BATCH = (
    "import numpy as np\n"
    "def halves(layers):\n"
    "    elems = np.array([la.in_c for la in layers], dtype=np.float64)\n"
    "    {target} = elems / 2\n"
    "    return {target}\n"
)


def test_r003_fires_on_promoted_batch_binding() -> None:
    """A float-promoted NumPy batch bound to an integer-unit name."""
    findings = analyze_source(PROMOTED_BATCH.format(target="half_elems"))
    r003 = [f for f in findings if f.code == "R003" and f.active]
    assert r003 and "half_elems" in r003[0].message


def test_r003_clean_for_float_named_binding() -> None:
    findings = analyze_source(PROMOTED_BATCH.format(target="half_ratio"))
    assert "R003" not in active_codes(findings)


def test_r004_fires_on_magic_1024() -> None:
    src = "def f(glb_bytes: int) -> float:\n    return glb_bytes / 1024\n"
    findings = analyze_source(src)
    assert "R004" in active_codes(findings)
    (finding,) = [f for f in findings if f.code == "R004"]
    assert finding.severity is Severity.WARNING


def test_r004_clean_on_non_unit_operand() -> None:
    src = "def f(offset: int) -> float:\n    return offset / 1024\n"
    assert "R004" not in active_codes(analyze_source(src))


# ----------------------------------------------------------------------
# Determinism pack (R010-R015)
# ----------------------------------------------------------------------


def test_r010_fires_on_random_call() -> None:
    src = "import random\n\ndef jitter() -> float:\n    return random.random()\n"
    assert "R010" in active_codes(analyze_source(src))


def test_r010_clean_on_perf_counter_and_seeded_rng() -> None:
    src = (
        "import time\n"
        "import numpy\n\n"
        "def bench() -> float:\n"
        "    rng = numpy.random.default_rng(1234)\n"
        "    del rng\n"
        "    return time.perf_counter()\n"
    )
    assert "R010" not in active_codes(analyze_source(src))


def test_r011_fires_on_environ_read() -> None:
    src = "import os\n\ndef knob() -> str | None:\n    return os.environ.get('X')\n"
    findings = analyze_source(src)
    assert "R011" in active_codes(findings)
    (finding,) = [f for f in findings if f.code == "R011"]
    assert finding.severity is Severity.WARNING


def test_r011_clean_on_environ_write() -> None:
    src = "import os\n\ndef set_knob() -> None:\n    os.environ['X'] = '1'\n"
    assert "R011" not in active_codes(analyze_source(src))


def test_r015_fires_on_module_level_dict() -> None:
    assert "R015" in active_codes(analyze_source("cache = {}\n"))


def test_r015_clean_on_constants_and_dunders() -> None:
    src = "LIMITS = {}\n__all__ = ['LIMITS']\n"
    assert "R015" not in active_codes(analyze_source(src))


# ----------------------------------------------------------------------
# Registry pack (R020-R023), project scope
# ----------------------------------------------------------------------

CLEAN_CATALOG = {
    "verify/codes.py": (
        'CODE_TITLES = {"V001": "alpha"}\n'
        'CODE_DESCRIPTIONS = {"V001": "alpha invariant"}\n'
    ),
    "verify/checks.py": 'def check() -> str:\n    return "V001"\n',
    "docs/verification.md": "| Code | Title |\n|---|---|\n| V001 | alpha |\n",
}


def test_r020_fires_on_undescribed_unraised_code(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            **CLEAN_CATALOG,
            "verify/codes.py": (
                'CODE_TITLES = {"V001": "alpha", "V002": "beta"}\n'
                'CODE_DESCRIPTIONS = {"V001": "alpha invariant"}\n'
            ),
        },
    )
    report = analyze_paths([root], root=root)
    messages = [f.message for f in report.active if f.code == "R020"]
    assert any("no description" in m for m in messages)
    assert any("never raised" in m for m in messages)
    assert any("missing from" in m for m in messages)


def test_r020_clean_on_consistent_catalog(tmp_path: Path) -> None:
    root = mini_project(tmp_path, CLEAN_CATALOG)
    report = analyze_paths([root], root=root)
    assert "R020" not in active_codes(report)


def test_r021_fires_on_unregistered_policy(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "policies/base.py": "class Policy:\n    pass\n",
            "policies/extra.py": (
                "from .base import Policy\n\n"
                "class ShinyPolicy(Policy):\n    pass\n"
            ),
            "policies/registry.py": "REGISTERED = ()\n",
        },
    )
    report = analyze_paths([root], root=root)
    r021 = [f for f in report.active if f.code == "R021"]
    assert len(r021) == 1 and "ShinyPolicy" in r021[0].message


def test_r021_clean_when_registered(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "policies/base.py": "class Policy:\n    pass\n",
            "policies/extra.py": (
                "from .base import Policy\n\n"
                "class ShinyPolicy(Policy):\n    pass\n"
            ),
            "policies/registry.py": (
                "from .extra import ShinyPolicy\n\nREGISTERED = (ShinyPolicy,)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R021" not in active_codes(report)


def test_r022_fires_on_undocumented_artifact(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "experiments/runner.py": (
                "def make() -> None:\n    pass\n\n"
                'ARTIFACTS = {"fig1": make, "fig2": make}\n'
            ),
            "EXPERIMENTS.md": "only `fig1` is described here\n",
        },
    )
    report = analyze_paths([root], root=root)
    r022 = [f for f in report.active if f.code == "R022"]
    assert len(r022) == 1 and "fig2" in r022[0].message


def test_r022_clean_when_indexed(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "experiments/runner.py": (
                "def make() -> None:\n    pass\n\n"
                'ARTIFACTS = {"fig1": make, "fig2": make}\n'
            ),
            "EXPERIMENTS.md": "ids: `fig1`, `fig2`\n",
        },
    )
    report = analyze_paths([root], root=root)
    assert "R022" not in active_codes(report)


def test_r023_fires_on_stale_code_reference(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            **CLEAN_CATALOG,
            "verify/stale.py": 'def check() -> str:\n    return "V999"\n',
        },
    )
    report = analyze_paths([root], root=root)
    r023 = [f for f in report.active if f.code == "R023"]
    assert len(r023) == 1 and "V999" in r023[0].message


def test_r023_clean_on_known_references(tmp_path: Path) -> None:
    root = mini_project(tmp_path, CLEAN_CATALOG)
    report = analyze_paths([root], root=root)
    assert "R023" not in active_codes(report)


R_CATALOG = {
    "analysis/codes.py": (
        'RULE_TITLES = {"R011": "env read"}\n'
        'RULE_DESCRIPTIONS = {"R011": "env read invariant"}\n'
    ),
}


def test_r023_fires_on_stale_noqa_code(tmp_path: Path) -> None:
    """A marker naming a retired or misspelled code silences nothing."""
    root = mini_project(
        tmp_path,
        {
            "analysis/codes.py": (REPO_ROOT / "src/repro/analysis/codes.py").read_text(),
            "pkg/cfg.py": (
                "import os\n"
                "KNOB = os.environ.get('K')  # repro: noqa[R011,R051] -- knob\n"
                "x = 1  # repro: noqa[R111] -- misspelled\n"
                "y = x * x  # repro: noqa[R070] -- retired with the range prover\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r023 = sorted((f.line, f.message) for f in report.active if f.code == "R023")
    assert [line for line, _ in r023] == [2, 3, 4]
    assert "R051" in r023[0][1] and "R111" in r023[1][1] and "R070" in r023[2][1]
    # the valid half of the marker still silences its finding
    assert "R011" not in active_codes(report)


def test_r023_clean_on_known_noqa_codes(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            **R_CATALOG,
            "pkg/cfg.py": (
                "import os\n"
                "KNOB = os.environ.get('K')  # repro: noqa[R011] -- knob\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R023" not in active_codes(report)


# ----------------------------------------------------------------------
# Observability pack (R030)
# ----------------------------------------------------------------------


def test_r030_fires_on_bare_span_start() -> None:
    src = (
        "def plan(tracer) -> None:\n"
        "    span = tracer.start('plan_layer')\n"
        "    span.set_attr('x', 1)\n"
    )
    assert "R030" in active_codes(analyze_source(src))


def test_r030_fires_on_accessor_chain() -> None:
    src = (
        "from repro.obs import get_tracer\n\n"
        "def plan() -> None:\n"
        "    get_tracer().start('plan_layer')\n"
    )
    assert "R030" in active_codes(analyze_source(src))


def test_r030_clean_with_context_manager() -> None:
    src = (
        "from repro.obs import get_tracer\n\n"
        "def plan() -> None:\n"
        "    with get_tracer().start('plan_layer') as span:\n"
        "        span.set_attr('x', 1)\n"
    )
    assert "R030" not in active_codes(analyze_source(src))


def test_r030_ignores_non_tracer_receivers() -> None:
    src = "def go(engine) -> None:\n    engine.start('motor')\n"
    assert "R030" not in active_codes(analyze_source(src))


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_noqa_suppresses_matching_code() -> None:
    src = (
        "def residency(tile_bytes: int) -> int:\n"
        "    return tile_bytes * 2  # repro: noqa[R002] -- reviewed\n"
    )
    findings = analyze_source(src)
    (finding,) = [f for f in findings if f.code == "R002"]
    assert finding.suppressed and not finding.active


def test_noqa_does_not_suppress_other_codes() -> None:
    src = (
        "def residency(tile_bytes: int) -> int:\n"
        "    return tile_bytes * 2  # repro: noqa[R004] -- wrong code\n"
    )
    assert "R002" in active_codes(analyze_source(src))


def test_parse_suppressions_captures_codes_and_reason() -> None:
    src = "x = 1  # repro: noqa[R002, R015] -- both intentional\n"
    (supp,) = parse_suppressions(src)
    assert supp.line == 1
    assert set(supp.codes) == {"R002", "R015"}
    assert supp.reason == "both intentional"


# ----------------------------------------------------------------------
# Self-check: the repository's own sources lint clean
# ----------------------------------------------------------------------


def test_repo_sources_lint_clean(repo_lint_report) -> None:
    report = repo_lint_report
    assert report.files > 100 and report.checks > report.files
    offenders = "\n".join(f.render() for f in report.active)
    assert report.ok(strict=True), f"unsuppressed findings:\n{offenders}"
    # the CI gate's --max-seconds 60 budget, and its wall-time line
    assert report.duration_seconds <= 60
    assert "wall time" in report.render()


def test_yield_table_counts_the_repo_noqa_keeps(repo_lint_report) -> None:
    """The rule-yield table's last column is the per-code suppressed count."""
    doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    table = doc.split("### Rule yield", 1)[1].split("\n### ", 1)[0]
    documented: dict[str, int] = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in RULE_TITLES:
            documented[cells[0]] = int(cells[-1])
    assert set(documented) == set(RULE_TITLES)
    suppressed = Counter(f.code for f in repo_lint_report if f.suppressed)
    assert documented == {code: suppressed[code] for code in RULE_TITLES}


def test_repo_suppressions_all_carry_reasons() -> None:
    """Every inline noqa in the tree explains itself."""
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for supp in parse_suppressions(path.read_text()):
            assert supp.reason, f"{path}:{supp.line}: noqa without a reason"


# ----------------------------------------------------------------------
# CLI behavior and exit codes
# ----------------------------------------------------------------------


def test_cli_list_codes(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["lint", "--list-codes"]) == 0
    out = capsys.readouterr().out
    for code in ALL_RULE_CODES:
        assert code in out


def test_cli_missing_path_is_usage_error(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["lint", "definitely/not/a/path.py"]) == 2
    capsys.readouterr()


def test_cli_seeded_unit_bug_fails(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/fit.py": (
                "def fits(ifmap_bytes: int, halo_elems: int) -> int:\n"
                "    return ifmap_bytes + halo_elems\n"
            )
        },
    )
    assert main(["lint", str(root), "--strict"]) == 1
    assert "R043" in capsys.readouterr().out


def test_cli_seeded_determinism_bug_fails(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/worker.py": (
                "import random\n\n"
                "def sample() -> float:\n    return random.random()\n"
            )
        },
    )
    assert main(["lint", str(root), "--strict"]) == 1
    assert "R010" in capsys.readouterr().out


def test_cli_seeded_registry_bug_fails(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    root = mini_project(
        tmp_path,
        {
            "policies/base.py": "class Policy:\n    pass\n",
            "policies/rogue.py": (
                "from .base import Policy\n\n"
                "class RoguePolicy(Policy):\n    pass\n"
            ),
            "policies/registry.py": "REGISTERED = ()\n",
        },
    )
    assert main(["lint", str(root), "--strict"]) == 1
    assert "R021" in capsys.readouterr().out


def test_cli_warnings_gate_only_under_strict(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    root = mini_project(
        tmp_path,
        {"pkg/conv.py": "def f(glb_bytes: int) -> float:\n    return glb_bytes / 1024\n"},
    )
    assert main(["lint", str(root)]) == 0
    assert main(["lint", str(root), "--strict"]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# Shared JSON schema (lint + verify)
# ----------------------------------------------------------------------


def test_lint_json_matches_shared_schema(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/fit.py": (
                "def fits(a_bytes: int, b_elems: int) -> int:\n"
                "    return a_bytes + b_elems\n"
            )
        },
    )
    assert main(["lint", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert validate_payload(payload) == []
    assert payload["schema"] == SCHEMA_ID
    assert payload["tool"] == "lint"
    assert payload["ok"] is False
    assert any(e["code"] == "R043" for e in payload["diagnostics"])


def test_verify_json_matches_shared_schema(
    capsys: pytest.CaptureFixture[str],
) -> None:
    assert main(["verify", "ResNet18", "--glb", "64", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert validate_payload(payload) == []
    assert payload["schema"] == SCHEMA_ID
    assert payload["tool"] == "verify"
    assert payload["ok"] is True
    assert payload["counts"]["checks"] > 0
