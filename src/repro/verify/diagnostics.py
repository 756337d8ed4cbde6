"""Structured diagnostics for the plan verifier.

Every violated invariant is reported as a :class:`Diagnostic` carrying a
stable code from the :mod:`~repro.verify.codes` catalog, the layer and
policy it concerns, and the expected-vs-actual values that falsified the
invariant.  Diagnostics aggregate into a :class:`VerificationReport`; a
report with zero error-severity diagnostics means every checked invariant
holds (``report.ok``).

The verifier never raises on a violation — callers that want an exception
(the planner's verify-on-plan debug mode, the CLI's exit status) use
:func:`VerificationReport.raise_if_failed` / :class:`PlanVerificationError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from .codes import CODE_TITLES


class Severity(enum.Enum):
    """How serious a diagnostic is.

    ``ERROR`` diagnostics falsify a formal invariant — the plan is wrong or
    internally inconsistent.  ``WARNING`` diagnostics flag conditions that
    are legal but reduce confidence (none of the current catalog codes emit
    warnings; the level exists for forward compatibility of the report
    format).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One violated (or suspicious) invariant, locatable and comparable.

    Attributes
    ----------
    code:
        Stable identifier from the catalog (``"V001"`` … — see
        :data:`repro.verify.codes.CODE_TITLES`).
    message:
        Human-readable, single-line statement of the violation.
    layer_index, layer_name:
        The layer the diagnostic anchors to, if any (plan-level
        diagnostics leave these unset).
    policy:
        Label of the policy instantiation involved (``"p2+p"`` style).
    expected, actual:
        The two sides of the falsified equation, when the invariant is an
        equality/bound; ``None`` for structural violations.
    severity:
        :class:`Severity` of the finding (``ERROR`` unless stated).
    """

    code: str
    message: str
    layer_index: int | None = None
    layer_name: str | None = None
    policy: str | None = None
    expected: int | float | str | None = None
    actual: int | float | str | None = None
    severity: Severity = Severity.ERROR

    def __post_init__(self) -> None:
        if self.code not in CODE_TITLES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def title(self) -> str:
        """Catalog title of the code (e.g. ``"capacity exceeded"``)."""
        return CODE_TITLES[self.code]

    def render(self) -> str:
        """One-line rendering: ``V001 [error] layer conv1 (p2+p): …``."""
        where = ""
        if self.layer_name is not None:
            idx = f"#{self.layer_index} " if self.layer_index is not None else ""
            where = f" layer {idx}{self.layer_name}"
            if self.policy is not None:
                where += f" ({self.policy})"
        detail = ""
        if self.expected is not None or self.actual is not None:
            detail = f" [expected {self.expected}, actual {self.actual}]"
        return f"{self.code} [{self.severity.value}]{where}: {self.message}{detail}"


class PlanVerificationError(RuntimeError):
    """A plan failed static verification.

    Raised by :meth:`VerificationReport.raise_if_failed` (and therefore by
    :func:`~repro.verify.check_plan`).  Carries the full report so callers
    can inspect individual diagnostics.
    """

    def __init__(self, report: "VerificationReport") -> None:
        super().__init__(report.render())
        self.report = report


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one subject (a candidate plan or a full plan).

    ``checks`` counts every invariant evaluation performed, so that "zero
    diagnostics" is distinguishable from "nothing was checked".
    """

    subject: str
    diagnostics: tuple[Diagnostic, ...] = ()
    checks: int = 0

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """Whether every checked invariant holds (warnings do not fail)."""
        return not self.errors

    @property
    def codes(self) -> tuple[str, ...]:
        """Distinct diagnostic codes present, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        """All diagnostics with the given catalog code."""
        return tuple(d for d in self.diagnostics if d.code == code)

    def render(self) -> str:
        """Multi-line human-readable report."""
        status = "OK" if self.ok else "FAILED"
        head = (
            f"{self.subject}: {status} "
            f"({self.checks} checks, {len(self.errors)} errors, "
            f"{len(self.warnings)} warnings)"
        )
        if not self.diagnostics:
            return head
        return "\n".join([head, *(f"  {d.render()}" for d in self.diagnostics)])

    def raise_if_failed(self) -> None:
        """Raise :class:`PlanVerificationError` when any error is present."""
        if not self.ok:
            raise PlanVerificationError(self)


@dataclass
class DiagnosticCollector:
    """Mutable accumulator the invariant checkers append into."""

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    checks: int = 0

    def check(
        self,
        condition: bool,
        code: str,
        message: str,
        *,
        layer_index: int | None = None,
        layer_name: str | None = None,
        policy: str | None = None,
        expected: int | float | str | None = None,
        actual: int | float | str | None = None,
        severity: Severity = Severity.ERROR,
    ) -> bool:
        """Record one invariant evaluation; emit a diagnostic if it fails."""
        self.checks += 1
        if not condition:
            self.diagnostics.append(
                Diagnostic(
                    code=code,
                    message=message,
                    layer_index=layer_index,
                    layer_name=layer_name,
                    policy=policy,
                    expected=expected,
                    actual=actual,
                    severity=severity,
                )
            )
        return condition

    def add(self, diagnostic: Diagnostic) -> None:
        """Append an externally-constructed diagnostic (counts as a check)."""
        self.checks += 1
        self.diagnostics.append(diagnostic)

    def report(self) -> VerificationReport:
        """Freeze the accumulated state into a report."""
        return VerificationReport(
            subject=self.subject,
            diagnostics=tuple(self.diagnostics),
            checks=self.checks,
        )
