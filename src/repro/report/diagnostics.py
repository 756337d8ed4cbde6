"""One JSON diagnostics schema shared by ``repro lint`` and ``repro verify``.

Both tools emit structured diagnostics — the plan verifier's ``V0xx``
:class:`~repro.verify.diagnostics.Diagnostic` records and the static
analyzer's ``R0xx`` :class:`~repro.analysis.findings.Finding` records.
Downstream tooling (CI annotations, dashboards) should parse *one*
schema, so this module is the single place that shapes either stream
into the ``repro-diagnostics/1`` payload::

    {
      "schema": "repro-diagnostics/1",
      "tool": "lint" | "verify",
      "ok": bool,
      "counts": {"checks": int, "errors": int, "warnings": int, ...},
      "diagnostics": [
        {
          "code": "R003",            # ^[VR]\\d{3}$
          "title": "...",
          "severity": "error" | "warning",
          "message": "...",
          "location": {"file": str|null, "line": int|null,
                        "subject": str|null, "layer": str|null,
                        "policy": str|null},
          "expected": any|null, "actual": any|null,
          "suppressed": bool
        }, ...
      ]
    }

:func:`validate_payload` is the schema's executable definition; the
regression test in ``tests/test_analysis.py`` holds both CLIs' JSON
output to it.

The module also validates the second machine-readable stream the repo
emits: the telemetry exporter's ``repro-telemetry/1`` payload
(:mod:`repro.obs.export` — a Chrome ``trace_event`` file with a metrics
snapshot and metadata riding along).  :func:`validate_telemetry_payload`
plays the same role for it that :func:`validate_payload` plays for
diagnostics.

This module deliberately imports nothing from :mod:`repro.verify` or
:mod:`repro.analysis` (both import the report layer), so the payload
builders take the report objects duck-typed.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.findings import AnalysisReport
    from ..verify.diagnostics import VerificationReport

#: Identifier of the shared schema (bump on incompatible changes).
SCHEMA_ID = "repro-diagnostics/1"

#: Identifier of the telemetry export schema.  Kept as a literal here
#: (this module imports nothing from the subsystems it validates); a
#: regression test pins it to :data:`repro.obs.export.TELEMETRY_SCHEMA`.
TELEMETRY_SCHEMA_ID = "repro-telemetry/1"

#: Identifier of the serving protocol schema.  Same literal-pinning
#: arrangement: a regression test ties it to
#: :data:`repro.serve.protocol.SERVE_SCHEMA_ID`.
SERVE_SCHEMA_ID = "repro-serve/1"

#: Endpoints a serve envelope may name (mirrors
#: :data:`repro.serve.protocol.ENDPOINTS`, pinned by the same test).
SERVE_ENDPOINTS = ("health", "models", "stats", "plan", "explain", "simulate")

_CODE_RE = re.compile(r"^[VR]\d{3}$")
_SEVERITIES = ("error", "warning")
_LOCATION_KEYS = ("file", "line", "subject", "layer", "policy")
_ENTRY_KEYS = (
    "code",
    "title",
    "severity",
    "message",
    "location",
    "expected",
    "actual",
    "suppressed",
)


def diagnostic_entry(
    *,
    code: str,
    title: str,
    severity: str,
    message: str,
    file: str | None = None,
    line: int | None = None,
    subject: str | None = None,
    layer: str | None = None,
    policy: str | None = None,
    expected: Any = None,
    actual: Any = None,
    suppressed: bool = False,
) -> dict[str, Any]:
    """One schema-shaped diagnostic entry (all keys always present)."""
    return {
        "code": code,
        "title": title,
        "severity": severity,
        "message": message,
        "location": {
            "file": file,
            "line": line,
            "subject": subject,
            "layer": layer,
            "policy": policy,
        },
        "expected": expected,
        "actual": actual,
        "suppressed": suppressed,
    }


def make_payload(
    tool: str,
    ok: bool,
    counts: dict[str, int],
    diagnostics: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Assemble the full ``repro-diagnostics/1`` payload."""
    return {
        "schema": SCHEMA_ID,
        "tool": tool,
        "ok": ok,
        "counts": dict(counts),
        "diagnostics": list(diagnostics),
    }


def lint_payload(report: "AnalysisReport") -> dict[str, Any]:
    """Shape a static-analysis report into the shared schema."""
    entries = [
        diagnostic_entry(
            code=f.code,
            title=f.title,
            severity=f.severity.value,
            message=f.message,
            file=f.path,
            line=f.line or None,
            suppressed=f.suppressed,
        )
        for f in sorted(report.findings, key=lambda f: (f.path, f.line, f.code))
    ]
    return make_payload("lint", report.ok(strict=True), report.counts(), entries)


def verify_payload(reports: Iterable["VerificationReport"]) -> dict[str, Any]:
    """Shape plan-verification reports into the shared schema."""
    entries = []
    checks = errors = warnings = 0
    ok = True
    for report in reports:
        checks += report.checks
        errors += len(report.errors)
        warnings += len(report.warnings)
        ok = ok and report.ok
        for d in report.diagnostics:
            entries.append(
                diagnostic_entry(
                    code=d.code,
                    title=d.title,
                    severity=d.severity.value,
                    message=d.message,
                    subject=report.subject,
                    layer=d.layer_name,
                    policy=d.policy,
                    expected=d.expected,
                    actual=d.actual,
                )
            )
    counts = {"checks": checks, "errors": errors, "warnings": warnings}
    return make_payload("verify", ok, counts, entries)


def validate_payload(payload: Any) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid).

    This function *is* the schema: the regression suite feeds both CLIs'
    ``--format json`` output through it, so the two tools cannot drift
    apart without a test failure.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SCHEMA_ID:
        problems.append(f"schema must be {SCHEMA_ID!r}, got {payload.get('schema')!r}")
    if not isinstance(payload.get("tool"), str):
        problems.append("tool must be a string")
    if not isinstance(payload.get("ok"), bool):
        problems.append("ok must be a boolean")
    counts = payload.get("counts")
    if not isinstance(counts, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in counts.items()
    ):
        problems.append("counts must be an object of integer counters")
    diagnostics = payload.get("diagnostics")
    if not isinstance(diagnostics, list):
        return [*problems, "diagnostics must be a list"]
    for i, entry in enumerate(diagnostics):
        where = f"diagnostics[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        missing = [k for k in _ENTRY_KEYS if k not in entry]
        if missing:
            problems.append(f"{where} missing keys: {missing}")
            continue
        if not (isinstance(entry["code"], str) and _CODE_RE.match(entry["code"])):
            problems.append(f"{where}.code must match ^[VR]ddd$")
        if entry["severity"] not in _SEVERITIES:
            problems.append(f"{where}.severity must be one of {_SEVERITIES}")
        for key in ("title", "message"):
            if not isinstance(entry[key], str):
                problems.append(f"{where}.{key} must be a string")
        location = entry["location"]
        if not isinstance(location, dict):
            problems.append(f"{where}.location is not an object")
        else:
            extra = [k for k in _LOCATION_KEYS if k not in location]
            if extra:
                problems.append(f"{where}.location missing keys: {extra}")
            line = location.get("line")
            if line is not None and not isinstance(line, int):
                problems.append(f"{where}.location.line must be int or null")
        if not isinstance(entry["suppressed"], bool):
            problems.append(f"{where}.suppressed must be a boolean")
    return problems


# ----------------------------------------------------------------------
# SARIF 2.1.0 (the repro lint --format sarif export)
# ----------------------------------------------------------------------

_SARIF_LEVELS = ("error", "warning", "note", "none")
_SARIF_SUPPRESSION_KINDS = ("inSource", "external")


def _validate_sarif_result(
    entry: Any, rule_ids: set[str], where: str, problems: list[str]
) -> None:
    if not isinstance(entry, dict):
        problems.append(f"{where} is not an object")
        return
    rule_id = entry.get("ruleId")
    if not isinstance(rule_id, str):
        problems.append(f"{where}.ruleId must be a string")
    elif rule_ids and rule_id not in rule_ids:
        problems.append(f"{where}.ruleId {rule_id!r} not in tool.driver.rules")
    if entry.get("level") not in _SARIF_LEVELS:
        problems.append(f"{where}.level must be one of {_SARIF_LEVELS}")
    message = entry.get("message")
    if not (isinstance(message, dict) and isinstance(message.get("text"), str)):
        problems.append(f"{where}.message.text must be a string")
    locations = entry.get("locations")
    if not isinstance(locations, list) or not locations:
        problems.append(f"{where}.locations must be a non-empty list")
        locations = []
    for j, loc in enumerate(locations):
        lwhere = f"{where}.locations[{j}]"
        physical = loc.get("physicalLocation") if isinstance(loc, dict) else None
        if not isinstance(physical, dict):
            problems.append(f"{lwhere}.physicalLocation is not an object")
            continue
        artifact = physical.get("artifactLocation")
        if not (
            isinstance(artifact, dict) and isinstance(artifact.get("uri"), str)
        ):
            problems.append(f"{lwhere} artifactLocation.uri must be a string")
        region = physical.get("region")
        if region is not None:
            start = region.get("startLine") if isinstance(region, dict) else None
            if not isinstance(start, int) or isinstance(start, bool) or start < 1:
                problems.append(f"{lwhere}.region.startLine must be a positive int")
    fingerprints = entry.get("partialFingerprints")
    if fingerprints is not None and not (
        isinstance(fingerprints, dict)
        and all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in fingerprints.items()
        )
    ):
        problems.append(f"{where}.partialFingerprints must map strings to strings")
    suppressions = entry.get("suppressions")
    if suppressions is not None:
        if not isinstance(suppressions, list):
            problems.append(f"{where}.suppressions must be a list")
        else:
            for j, supp in enumerate(suppressions):
                if (
                    not isinstance(supp, dict)
                    or supp.get("kind") not in _SARIF_SUPPRESSION_KINDS
                ):
                    problems.append(
                        f"{where}.suppressions[{j}].kind must be one of "
                        f"{_SARIF_SUPPRESSION_KINDS}"
                    )


def validate_sarif_payload(payload: Any) -> list[str]:
    """Structural validation of a SARIF 2.1.0 lint export.

    Returns a list of problems (empty = valid).  This is the executable
    subset of the SARIF 2.1.0 schema the project relies on: version
    pinning, the tool driver with per-rule metadata, and results with
    physical locations, fingerprints and suppressions.  The regression
    suite feeds ``repro lint --format sarif`` output through it, so the
    exporter cannot drift from what scanning UIs ingest.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("version") != "2.1.0":
        problems.append(f"version must be '2.1.0', got {payload.get('version')!r}")
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        return [*problems, "runs must be a non-empty list"]
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            problems.append(f"{where} is not an object")
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(
            run.get("tool"), dict
        ) else None
        rule_ids: set[str] = set()
        if not isinstance(driver, dict):
            problems.append(f"{where}.tool.driver is not an object")
        else:
            if not isinstance(driver.get("name"), str):
                problems.append(f"{where}.tool.driver.name must be a string")
            rules = driver.get("rules", [])
            if not isinstance(rules, list):
                problems.append(f"{where}.tool.driver.rules must be a list")
                rules = []
            for j, rule_entry in enumerate(rules):
                rwhere = f"{where}.tool.driver.rules[{j}]"
                if not isinstance(rule_entry, dict) or not isinstance(
                    rule_entry.get("id"), str
                ):
                    problems.append(f"{rwhere}.id must be a string")
                    continue
                rule_ids.add(rule_entry["id"])
                short = rule_entry.get("shortDescription")
                if not (
                    isinstance(short, dict)
                    and isinstance(short.get("text"), str)
                ):
                    problems.append(f"{rwhere}.shortDescription.text must be a string")
        results = run.get("results")
        if not isinstance(results, list):
            problems.append(f"{where}.results must be a list")
            continue
        for j, entry in enumerate(results):
            _validate_sarif_result(
                entry, rule_ids, f"{where}.results[{j}]", problems
            )
    return problems


# ----------------------------------------------------------------------
# repro-telemetry/1 (the obs exporter's Chrome-trace + metrics payload)
# ----------------------------------------------------------------------

_TRACE_PHASES = ("X", "M")
_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid", "args")
_METRIC_KINDS = ("counters", "gauges", "histograms")
_HISTOGRAM_KEYS = ("count", "sum", "min", "max")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_trace_event(entry: Any, where: str, problems: list[str]) -> None:
    if not isinstance(entry, dict):
        problems.append(f"{where} is not an object")
        return
    missing = [k for k in _EVENT_KEYS if k not in entry]
    if missing:
        problems.append(f"{where} missing keys: {missing}")
        return
    if not isinstance(entry["name"], str):
        problems.append(f"{where}.name must be a string")
    if entry["ph"] not in _TRACE_PHASES:
        problems.append(f"{where}.ph must be one of {_TRACE_PHASES}")
    if not _is_number(entry["ts"]) or entry["ts"] < 0:
        problems.append(f"{where}.ts must be a non-negative number")
    for key in ("pid", "tid"):
        if not isinstance(entry[key], int) or isinstance(entry[key], bool):
            problems.append(f"{where}.{key} must be an integer")
    if not isinstance(entry["args"], dict):
        problems.append(f"{where}.args must be an object")
    if entry["ph"] == "X":
        dur = entry.get("dur")
        if not _is_number(dur) or dur < 0:
            problems.append(f"{where}.dur must be a non-negative number")


def _validate_metrics(metrics: Any, problems: list[str]) -> None:
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
        return
    missing = [k for k in _METRIC_KINDS if k not in metrics]
    if missing:
        problems.append(f"metrics missing keys: {missing}")
    for kind in ("counters", "gauges"):
        values = metrics.get(kind)
        if values is None:
            continue
        if not isinstance(values, dict) or not all(
            isinstance(k, str) and _is_number(v) for k, v in values.items()
        ):
            problems.append(f"metrics.{kind} must map names to numbers")
    histograms = metrics.get("histograms")
    if histograms is not None:
        if not isinstance(histograms, dict):
            problems.append("metrics.histograms must be an object")
            return
        for name, summary in histograms.items():
            where = f"metrics.histograms[{name!r}]"
            if not isinstance(summary, dict):
                problems.append(f"{where} is not an object")
                continue
            absent = [k for k in _HISTOGRAM_KEYS if k not in summary]
            if absent:
                problems.append(f"{where} missing keys: {absent}")
            bad = [k for k in _HISTOGRAM_KEYS if k in summary and not _is_number(summary[k])]
            if bad:
                problems.append(f"{where} non-numeric fields: {bad}")


def validate_telemetry_payload(payload: Any) -> list[str]:
    """Structural validation of a ``repro-telemetry/1`` payload.

    Returns a list of problems (empty = valid).  Like
    :func:`validate_payload`, this function *is* the schema — the
    regression suite feeds ``--trace-out`` files through it, so the
    exporter cannot drift without a test failure.  The checked shape is
    a superset of the Chrome ``trace_event`` JSON object form, so any
    valid payload loads in Perfetto / ``chrome://tracing`` as-is.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != TELEMETRY_SCHEMA_ID:
        problems.append(
            f"schema must be {TELEMETRY_SCHEMA_ID!r}, got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("displayTimeUnit"), str):
        problems.append("displayTimeUnit must be a string")
    meta = payload.get("meta")
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        problems.append("meta must be an object of string values")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        problems.append("traceEvents must be a list")
    else:
        for i, entry in enumerate(events):
            _validate_trace_event(entry, f"traceEvents[{i}]", problems)
    _validate_metrics(payload.get("metrics"), problems)
    return problems


def validate_serve_payload(payload: Any) -> list[str]:
    """Structural validation of a ``repro-serve/1`` response envelope.

    Returns a list of problems (empty = valid).  This function *is* the
    serving schema: the serve test suite feeds live daemon responses —
    successes and every structured error — through it, so the HTTP layer
    cannot drift from the documented envelope without a test failure.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SERVE_SCHEMA_ID:
        problems.append(
            f"schema must be {SERVE_SCHEMA_ID!r}, got {payload.get('schema')!r}"
        )
    ok = payload.get("ok")
    if not isinstance(ok, bool):
        problems.append("ok must be a boolean")
    endpoint = payload.get("endpoint")
    if not isinstance(endpoint, str):
        problems.append("endpoint must be a string")
    result = payload.get("result")
    error = payload.get("error")
    if ok is True:
        if not isinstance(result, dict):
            problems.append("ok envelopes must carry a result object")
        if error is not None:
            problems.append("ok envelopes must have error = null")
        if isinstance(endpoint, str) and endpoint not in SERVE_ENDPOINTS:
            problems.append(
                f"ok envelopes must name a known endpoint, got {endpoint!r}"
            )
    elif ok is False:
        if result is not None:
            problems.append("error envelopes must have result = null")
        if not isinstance(error, dict):
            problems.append("error envelopes must carry an error object")
        else:
            if not (isinstance(error.get("code"), str) and error["code"]):
                problems.append("error.code must be a non-empty string")
            if not isinstance(error.get("message"), str):
                problems.append("error.message must be a string")
    return problems
