"""Finding and report types of the source static analyzer.

A :class:`Finding` is the static-analysis sibling of
:class:`repro.verify.diagnostics.Diagnostic`: one violated source-level
invariant, carrying a stable ``R0xx`` code from the
:mod:`repro.analysis.codes` catalog and a file/line anchor.  Findings
aggregate into an :class:`AnalysisReport`; a report whose *active* set is
empty (nothing unsuppressed) means the analyzed sources satisfy every
rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

from ..verify.diagnostics import Severity
from .codes import RULE_PACKS, RULE_TITLES, WARNING_CODES


def severity_of(code: str) -> Severity:
    """Catalog severity of a rule code (``WARNING`` for hazard rules)."""
    return Severity.WARNING if code in WARNING_CODES else Severity.ERROR


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location.

    Attributes
    ----------
    code:
        Stable identifier from the catalog (``"R003"`` … — see
        :data:`repro.analysis.codes.RULE_TITLES`).
    path:
        Project-relative path of the offending file (``/``-separated).
    line:
        1-based line the finding anchors to (0 for whole-file findings).
    message:
        Human-readable, single-line statement of the violation.
    severity:
        :class:`~repro.verify.diagnostics.Severity` from the catalog.
    suppressed:
        True when an inline ``# repro: noqa[Rxxx]`` covers the finding.
    snippet:
        Text of the anchored source line (empty for whole-file or
        out-of-source findings); the normalized snippet is what the
        fingerprint hashes.
    """

    code: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR
    suppressed: bool = False
    snippet: str = ""

    def __post_init__(self) -> None:
        if self.code not in RULE_TITLES:
            raise ValueError(f"unknown rule code {self.code!r}")

    @property
    def title(self) -> str:
        """Catalog title of the code (e.g. ``"byte/element unit mix"``)."""
        return RULE_TITLES[self.code]

    @property
    def pack(self) -> str:
        """Rule pack the code belongs to (``"units"``, …)."""
        return RULE_PACKS[self.code]

    @property
    def active(self) -> bool:
        """Whether the finding still gates (not suppressed)."""
        return not self.suppressed

    def normalized_snippet(self) -> str:
        """The anchored source line with whitespace collapsed.

        Normalization makes the fingerprint robust to re-indentation
        and formatting-only edits; an empty snippet (whole-file or
        out-of-source findings) falls back to the message text so every
        finding still fingerprints deterministically.
        """
        collapsed = " ".join(self.snippet.split())
        return collapsed if collapsed else self.message

    def fingerprint(self) -> str:
        """Content-based identity (SARIF ``partialFingerprints``).

        Hashes rule code, file path and the *normalized source snippet*
        — not the line number and not the message — so a finding keeps
        its identity across unrelated edits above it (line shifts) and
        message-wording tweaks, and changes only when the offending code
        itself changes.
        """
        body = f"{self.code}|{self.path}|{self.normalized_snippet()}"
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def render(self) -> str:
        """One-line rendering: ``path:line: R003 [error] message``."""
        flags = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}: {self.code} "
            f"[{self.severity.value}]{flags}: {self.message}"
        )


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of one analysis run over a set of source files.

    ``checks`` counts rule×file evaluations performed (project rules count
    once each), so "zero findings" is distinguishable from "nothing ran".
    ``duration_seconds`` is the analysis wall time — the CI gate budgets
    it so the whole-program passes cannot silently rot lint latency.
    """

    findings: tuple[Finding, ...] = ()
    files: int = 0
    checks: int = 0
    duration_seconds: float = 0.0

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    @property
    def active(self) -> tuple[Finding, ...]:
        """Findings that still gate (not suppressed)."""
        return tuple(f for f in self.findings if f.active)

    @property
    def active_errors(self) -> tuple[Finding, ...]:
        """Active findings with error severity."""
        return tuple(f for f in self.active if f.severity is Severity.ERROR)

    @property
    def suppressed(self) -> tuple[Finding, ...]:
        """Findings silenced by inline ``noqa`` comments."""
        return tuple(f for f in self.findings if f.suppressed)

    def ok(self, strict: bool = False) -> bool:
        """Whether the run gates clean.

        Default mode fails on active errors only; ``strict`` also fails
        on active warnings (the CI configuration).
        """
        return not (self.active if strict else self.active_errors)

    def counts(self) -> dict[str, int]:
        """Summary counters (errors/warnings are *active* counts)."""
        return {
            "checks": self.checks,
            "files": self.files,
            "errors": len(self.active_errors),
            "warnings": len(self.active) - len(self.active_errors),
            "suppressed": len(self.suppressed),
        }

    def render(self, *, show_silenced: bool = False) -> str:
        """Multi-line human-readable report."""
        c = self.counts()
        status = "OK" if self.ok(strict=True) else "FINDINGS"
        head = (
            f"repro lint: {status} ({c['files']} files, {c['checks']} checks, "
            f"{c['errors']} errors, {c['warnings']} warnings, "
            f"{c['suppressed']} suppressed, wall time {self.duration_seconds:.2f}s)"
        )
        shown = self.findings if show_silenced else self.active
        ordered = sorted(shown, key=lambda f: (f.path, f.line, f.code))
        return "\n".join([head, *(f"  {f.render()}" for f in ordered)])
