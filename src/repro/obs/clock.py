"""The single monotonic clock behind every repro timing.

All wall-time measurements — span durations, the experiment engine's
per-artifact seconds, :meth:`repro.manager.MemoryManager.plan_cached` —
go through :func:`monotonic_ns` so that (a) every timing in the repo is
taken from the same monotonic source and (b) tests can monkeypatch one
function (``repro.obs.clock.monotonic_ns``) to make timings
deterministic.  Callers must access it as a module attribute
(``clock.monotonic_ns()``), never ``from … import monotonic_ns``, or the
monkeypatch will not reach them.

``time.perf_counter_ns`` is monotonic and never feeds results (only
telemetry); a clock reading that did would change the pinned plan and
CLI goldens.
"""

from __future__ import annotations

import time


def monotonic_ns() -> int:
    """Current monotonic timestamp in nanoseconds (telemetry/timing only)."""
    return time.perf_counter_ns()


def elapsed_seconds(start_ns: int) -> float:
    """Seconds elapsed since a :func:`monotonic_ns` timestamp."""
    return (monotonic_ns() - start_ns) / 1e9
