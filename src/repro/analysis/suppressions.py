"""Inline suppression comments: ``# repro: noqa[Rxxx] -- reason``.

A finding is suppressed when the line it anchors to carries a marker
naming its code.  Markers accept multiple codes (``noqa[R004,R011]``)
and an optional (but strongly encouraged — the project convention
requires it for anything intentionally kept) free-text reason after
``--``::

    base = os.environ.get("XDG")  # repro: noqa[R011] -- documented knob

Blanket suppressions (bare ``noqa`` without codes) are deliberately not
supported: every silenced finding names what it silences.

The same parser reads the concurrency pack's thread-root declarations,
a marker on a root's ``def`` line whose text after ``--`` labels the
thread context (:mod:`.threadroots`)::

    def handle(self, conn):  # repro: thread-root[concurrent] -- handler pool
    def serve_forever(self):  # repro: thread-root -- accept loop

Markers are read from comment tokens only, so a marker quoted inside a
string (such as the examples above) declares nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
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
    """Extract every ``noqa`` and ``thread-root`` marker from a source text.

    The source must tokenize (a file that does not is an ``R000``
    finding before any marker matters).
    """
    if _MARKER.search(source) is None:  # most files: skip the tokenizer
        return (), ()
    suppressions: list[Suppression] = []
    roots: list[ThreadRootMarker] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _MARKER.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
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
