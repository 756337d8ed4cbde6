"""Telemetry exporters: Chrome ``trace_event`` JSON + metrics payload.

The on-disk format is the ``repro-telemetry/1`` schema (validated by
:func:`repro.report.diagnostics.validate_telemetry_payload`): a JSON
object whose ``traceEvents`` array follows the Chrome ``trace_event``
format — Perfetto and ``chrome://tracing`` load the file directly,
extra top-level keys (``schema``, ``metrics``, ``meta``) are ignored by
both — and whose ``metrics`` object is a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.

Spans become ``"X"`` (complete) events with microsecond timestamps
normalized so the earliest span starts at 0; one ``"M"`` (metadata)
event per process names it for the viewer's process rail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .metrics import Snapshot
from .tracer import SpanRecord

#: Schema identifier stamped into every exported telemetry payload.
TELEMETRY_SCHEMA = "repro-telemetry/1"


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def chrome_trace_events(spans: Sequence[SpanRecord]) -> list[dict[str, object]]:
    """Render spans as Chrome ``trace_event`` dicts (``X`` + ``M`` events)."""
    events: list[dict[str, object]] = []
    if not spans:
        return events
    origin_ns = min(span.start_ns for span in spans)
    for pid in sorted({span.pid for span in spans}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro"},
            }
        )
    for span in sorted(spans, key=lambda s: (s.pid, s.tid, s.start_ns)):
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start_ns - origin_ns) / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": span.pid,
                "tid": span.tid,
                "args": {key: _json_safe(value) for key, value in span.attrs},
            }
        )
    return events


def telemetry_payload(
    spans: Sequence[SpanRecord],
    metrics_snapshot: Snapshot,
    meta: dict[str, str] | None = None,
) -> dict[str, object]:
    """Build a complete ``repro-telemetry/1`` payload."""
    return {
        "schema": TELEMETRY_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(spans),
        "metrics": metrics_snapshot,
        "meta": dict(meta or {}),
    }


def write_trace(path: str | Path, payload: dict[str, object]) -> Path:
    """Write a telemetry payload to ``path`` as pretty-printed JSON."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
