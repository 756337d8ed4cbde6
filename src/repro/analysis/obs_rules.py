"""Observability rule pack (``R030``).

A :class:`~repro.obs.tracer.Span` records itself only on ``__exit__``,
so every ``tracer.start(...)`` call must be the context expression of a
``with`` statement.  A bare call "works" (no exception) but silently
drops the span; the tracer's nesting depth is taken in ``__enter__``, so
later spans still record the right depth.  ``R030`` makes the
convention checkable.

Unsuffixed metric names need no rule: :class:`~repro.obs.MetricsRegistry`
raises ``ValueError`` on them at registration, traced or not, so every
literal name fails the first test that reaches it.

The rule is name-heuristic (receivers matching ``tracer``), matching
the repo's accessor convention (``get_tracer()``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .findings import Finding
from .rules import SourceFile, rule
from .unit_rules import _terminal_name
from .unitflow import _src

#: Receiver names that identify a tracer object.
_TRACER_RECEIVER = re.compile(r"tracer", re.IGNORECASE)

#: Methods on a tracer that open a span.
_SPAN_METHODS = frozenset({"start", "span"})


def _span_label(node: ast.Call) -> str:
    """Readable label for a span-opening call, for messages."""
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return f"span '{value}'"
    return _src(node)


def _with_context_exprs(tree: ast.Module) -> set[int]:
    """Ids of every expression used directly as a ``with`` item."""
    contexts: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                contexts.add(id(item.context_expr))
    return contexts


@rule("R030")
def check_span_context_manager(file: SourceFile) -> Iterator[Finding]:
    """Every ``tracer.start(...)`` call is a ``with`` context expression."""
    contexts = _with_context_exprs(file.tree)
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _SPAN_METHODS:
            continue
        receiver = _terminal_name(func.value)
        if receiver is None or not _TRACER_RECEIVER.search(receiver):
            continue
        if id(node) in contexts:
            continue
        yield file.finding(
            "R030",
            node,
            f"{_span_label(node)} opened outside a 'with' statement; spans "
            f"record only on __exit__, so this span is silently dropped",
        )
