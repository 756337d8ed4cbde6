"""Planning-as-a-service: the ``repro serve`` daemon and its plumbing.

The ROADMAP's "planning-as-a-service" item turns the deterministic,
content-addressable Algorithm 1 pipeline into a long-running serving
layer.  The package splits into five modules:

* :mod:`~repro.serve.protocol` — the ``repro-serve/1`` JSON request/
  response envelope (schema-validated in
  :mod:`repro.report.diagnostics`, same style as ``repro-diagnostics/1``).
* :mod:`~repro.serve.handlers` — pure endpoint handlers
  (``handle_plan``, ``handle_explain``, …) mapping validated request
  parameters to response payloads; they are thread roots for the R06x
  concurrency lint.  ``respond``, the unit of work fanned out to the
  process pool, answers repeated requests from stored reply bytes.
* :mod:`~repro.serve.cache_index` — the shared plan cache's LRU index:
  an append-only journal that survives concurrent writers, plus size-cap
  eviction.
* :mod:`~repro.serve.server` — the ``repro serve`` HTTP daemon
  (stdlib ``ThreadingHTTPServer``) with graceful SIGINT/SIGTERM
  drain-and-flush shutdown.
* :mod:`~repro.serve.loadgen` — the deterministic load generator behind
  ``repro bench serve`` (seeded traffic mix, p50/p99 latency,
  throughput, cache hit-rate → ``BENCH_serve.json``).

This ``__init__`` deliberately imports only the dependency-free modules
(:mod:`~repro.serve.protocol`, :mod:`~repro.serve.cache_index`) so that
:mod:`repro.experiments.cache` can import the index without creating an
import cycle through the server/handler layers.
"""

from __future__ import annotations

from .cache_index import CacheIndex, IndexEntry, PruneResult
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
    "CacheIndex",
    "IndexEntry",
    "ProtocolError",
    "PruneResult",
    "SERVE_SCHEMA_ID",
    "canonical_json",
    "error_response",
    "ok_response",
]
