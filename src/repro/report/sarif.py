"""SARIF 2.1.0 export of ``repro lint`` reports.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format code-scanning UIs ingest (GitHub code
scanning, VS Code SARIF viewer, …).  :func:`sarif_payload` shapes an
:class:`~repro.analysis.findings.AnalysisReport` into one SARIF run:

* every rule code that occurs in the report becomes a
  ``tool.driver.rules`` entry carrying the catalog title, description
  and default severity level;
* every finding becomes a ``results`` entry with a physical location
  (project-relative URI + 1-based line region), the content-addressed
  fingerprint under ``partialFingerprints`` (so scanning UIs track
  findings across line shifts), and an ``inSource`` ``suppressions``
  entry for noqa'd findings;
* the run's ``invocation`` records wall time and the strict-gate
  outcome.

Like the sibling ``repro-diagnostics/1`` builder, this module takes the
report duck-typed and keeps module-level imports free of
:mod:`repro.analysis` (which imports the report layer);
:func:`~repro.report.diagnostics.validate_sarif_payload` is the
executable subset of the SARIF schema the regression suite holds this
output to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.findings import AnalysisReport, Finding

#: Canonical JSON-schema URI for SARIF 2.1.0 payloads.
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

SARIF_VERSION = "2.1.0"

#: Name the run's tool.driver reports to scanning UIs.
DRIVER_NAME = "repro-lint"

#: Key under ``partialFingerprints`` carrying the finding fingerprint.
FINGERPRINT_KEY = "reproLintFingerprint/v1"


def _rule_description(code: str) -> str:
    # Function-level import: the report layer must not depend on
    # repro.analysis at import time (it imports us back).
    from ..analysis.codes import RULE_DESCRIPTIONS

    return RULE_DESCRIPTIONS.get(code, "")


def _result(finding: "Finding", rule_index: dict[str, int]) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": finding.code,
        "ruleIndex": rule_index[finding.code],
        "level": finding.severity.value,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    **(
                        {"region": {"startLine": finding.line}}
                        if finding.line > 0
                        else {}
                    ),
                }
            }
        ],
        "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint()},
    }
    if finding.suppressed:
        result["suppressions"] = [
            {"kind": "inSource", "justification": "repro: noqa marker"}
        ]
    return result


def sarif_payload(report: "AnalysisReport") -> dict[str, Any]:
    """Shape a static-analysis report into a SARIF 2.1.0 payload."""
    ordered = sorted(report.findings, key=lambda f: (f.path, f.line, f.code))
    codes = sorted({f.code for f in ordered})
    rule_index = {code: i for i, code in enumerate(codes)}
    titles = {f.code: f.title for f in ordered}
    severities = {f.code: f.severity.value for f in ordered}
    rules = [
        {
            "id": code,
            "name": titles[code],
            "shortDescription": {"text": titles[code]},
            "fullDescription": {"text": _rule_description(code)},
            "defaultConfiguration": {"level": severities[code]},
        }
        for code in codes
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": DRIVER_NAME,
                        "rules": rules,
                    }
                },
                "invocations": [
                    {
                        "executionSuccessful": report.ok(strict=True),
                        "properties": {
                            "wallTimeSeconds": round(
                                report.duration_seconds, 3
                            ),
                            "files": report.files,
                            "checks": report.checks,
                        },
                    }
                ],
                "columnKind": "utf16CodeUnits",
                "results": [_result(f, rule_index) for f in ordered],
            }
        ],
    }
