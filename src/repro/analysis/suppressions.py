"""Inline suppression comments: ``# repro: noqa[Rxxx] -- reason``.

A finding is suppressed when the line it anchors to carries a marker
naming its code.  Markers accept multiple codes and an optional (but
strongly encouraged — the project convention requires it for anything
intentionally kept) free-text reason after ``--``::

    memo = {}  # repro: noqa[R015] -- per-process memo by design
    base = os.environ.get("XDG")  # repro: noqa[R011,R010] -- documented knob

Blanket suppressions (bare ``noqa`` without codes) are deliberately not
supported: every silenced finding names what it silences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_MARKER = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\]"
    r"(?:\s*--\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed noqa marker: the line it covers, its codes and reason."""

    line: int
    codes: frozenset[str]
    reason: str = ""


def parse_suppressions(source: str) -> tuple[Suppression, ...]:
    """Extract every ``# repro: noqa[...]`` marker from a source text."""
    found = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _MARKER.search(text)
        if match is None:
            continue
        codes = frozenset(
            code.strip() for code in match.group("codes").split(",")
        )
        reason = (match.group("reason") or "").strip()
        found.append(Suppression(line=lineno, codes=codes, reason=reason))
    return tuple(found)


def suppressed_at(
    suppressions: tuple[Suppression, ...], line: int, code: str
) -> bool:
    """Whether a finding of ``code`` on ``line`` is covered by a marker."""
    return any(s.line == line and code in s.codes for s in suppressions)
