"""Inline suppression comments: ``# repro: noqa[Rxxx] -- reason``.

A finding is suppressed when the line it anchors to carries a marker
naming its code.  Markers accept multiple codes and an optional (but
strongly encouraged — the project convention requires it for anything
intentionally kept) free-text reason after ``--``::

    memo = {}  # repro: noqa[R015] -- per-process memo by design
    base = os.environ.get("XDG")  # repro: noqa[R011,R010] -- documented knob

Blanket suppressions (bare ``noqa`` without codes) are deliberately not
supported: every silenced finding names what it silences.

The same parser reads the concurrency pack's thread-root declarations,
a marker on a root's ``def`` line whose text after ``--`` labels the
thread context (:mod:`.threadroots`)::

    def handle(self, conn):  # repro: thread-root[concurrent] -- handler pool
    def serve_forever(self):  # repro: thread-root -- accept loop
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_MARKER = re.compile(
    r"#\s*repro:\s*(?:noqa\[(?P<codes>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\]"
    r"|thread-root(?P<concurrent>\[concurrent\])?)"
    r"(?:\s*--\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed noqa marker: the line it covers, its codes and reason."""

    line: int
    codes: frozenset[str]
    reason: str = ""


@dataclass(frozen=True)
class ThreadRootMarker:
    """One parsed thread-root declaration: its line, kind and label."""

    line: int
    concurrent: bool
    label: str


def parse_markers(
    source: str,
) -> tuple[tuple[Suppression, ...], tuple[ThreadRootMarker, ...]]:
    """Extract every ``noqa`` and ``thread-root`` marker from a source text."""
    suppressions: list[Suppression] = []
    roots: list[ThreadRootMarker] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _MARKER.search(text)
        if match is None:
            continue
        reason = (match.group("reason") or "").strip()
        if match.group("codes") is None:
            roots.append(ThreadRootMarker(lineno, bool(match.group("concurrent")), reason))
            continue
        codes = frozenset(
            code.strip() for code in match.group("codes").split(",")
        )
        suppressions.append(Suppression(line=lineno, codes=codes, reason=reason))
    return tuple(suppressions), tuple(roots)


def parse_suppressions(source: str) -> tuple[Suppression, ...]:
    """Extract every ``# repro: noqa[...]`` marker from a source text."""
    return parse_markers(source)[0]


def suppressed_at(
    suppressions: tuple[Suppression, ...], line: int, code: str
) -> bool:
    """Whether a finding of ``code`` on ``line`` is covered by a marker."""
    return any(s.line == line and code in s.codes for s in suppressions)
