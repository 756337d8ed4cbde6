"""Planning-as-a-service: the ``repro serve`` daemon and its plumbing.

The ROADMAP's "planning-as-a-service" item turns the deterministic,
content-addressable Algorithm 1 pipeline into a long-running serving
layer.  The package splits into four modules:

* :mod:`~repro.serve.protocol` — the ``repro-serve/1`` JSON request/
  response envelope (schema-validated in
  :mod:`repro.report.diagnostics`, same style as ``repro-diagnostics/1``).
* :mod:`~repro.serve.handlers` — pure endpoint handlers
  (``handle_plan``, ``handle_explain``, …) mapping validated request
  parameters to response payloads; they are thread roots for the R06x
  concurrency lint.  ``respond``, the unit of work fanned out to the
  process pool, answers repeated requests from stored reply bytes.
* :mod:`~repro.serve.server` — the ``repro serve`` HTTP daemon
  (stdlib ``HTTPServer`` over a pool of reused handler threads) with
  graceful SIGINT/SIGTERM drain-on-shutdown.
* :mod:`~repro.serve.loadgen` — the deterministic load generator behind
  ``repro bench serve`` (seeded traffic mix, p50/p99 latency,
  throughput, cache hit-rate → ``BENCH_serve.json``).

The shared plan cache the handlers read and write, with its LRU
eviction, is :mod:`repro.experiments.cache`.
"""

from __future__ import annotations

from .protocol import (
    ENDPOINTS,
    SERVE_SCHEMA_ID,
    ProtocolError,
    canonical_json,
    error_response,
    ok_response,
)

__all__ = [
    "ENDPOINTS",
    "ProtocolError",
    "SERVE_SCHEMA_ID",
    "canonical_json",
    "error_response",
    "ok_response",
]
