"""Deterministic load generator for the ``repro serve`` daemon.

``repro bench serve --clients N --requests M`` replays a seeded traffic
mix (plan/explain/simulate requests over the model zoo at several GLB
sizes) against a daemon and reports latency percentiles, throughput and
cache hit-rate into ``BENCH_serve.json``.

Determinism without :mod:`random`: request *i* of a run is chosen by the
SHA-256 digest of ``"<seed>:<i>"`` (:func:`request_mix`), so the same
``--seed`` always produces the same request sequence, byte for byte —
only the interleaving across client threads varies.

Each response is additionally checked for **byte identity**: the served
``result`` (minus the per-request ``cache`` hit flag) must equal, under
:func:`~repro.serve.protocol.canonical_json`, what a direct in-process
call to the same handler produces.  This is the acceptance property that
the daemon serves exactly what ``MemoryManager.plan_cached`` computes —
no drift between the HTTP path and the library path.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..obs import clock
from .handlers import execute
from .protocol import canonical_json

#: Default model mix (small nets keep the cold CI run cheap).
DEFAULT_MODELS: tuple[str, ...] = ("MobileNet", "ResNet18", "MnasNet")

#: Default GLB sizes (KiB) in the mix.
DEFAULT_GLB_KB: tuple[int, ...] = (32, 64)

#: Endpoint weights per 100 requests (plan-heavy, like a real client).
MIX_WEIGHTS: tuple[tuple[str, int], ...] = (
    ("plan", 70),
    ("explain", 15),
    ("simulate", 15),
)


@dataclass(frozen=True)
class RequestJob:
    """One scheduled request of the seeded mix."""

    index: int
    endpoint: str
    params: dict[str, Any]


@dataclass(frozen=True)
class RequestOutcome:
    """What one request did: status, cache hit, latency, byte identity."""

    endpoint: str
    status: int
    ok: bool
    cache_hit: bool
    latency_seconds: float
    byte_identical: bool


def _digest_ints(seed: int, index: int, count: int) -> list[int]:
    """``count`` deterministic small ints from sha256("<seed>:<index>")."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return [digest[i] for i in range(count)]


def _pick_endpoint(roll: int) -> str:
    """Map a 0–255 roll onto the weighted endpoint mix."""
    point = roll % sum(weight for _, weight in MIX_WEIGHTS)
    for endpoint, weight in MIX_WEIGHTS:
        if point < weight:
            return endpoint
        point -= weight
    return MIX_WEIGHTS[0][0]


def request_mix(
    seed: int,
    count: int,
    *,
    models: tuple[str, ...] = DEFAULT_MODELS,
    glb_kb: tuple[int, ...] = DEFAULT_GLB_KB,
) -> list[RequestJob]:
    """The full seeded request sequence for one run.

    Pure function of its arguments (hash-derived choices, no RNG state),
    so two runs with the same seed replay identical traffic — the basis
    of the warm-run hit-rate acceptance check.
    """
    jobs = []
    for index in range(count):
        d_model, d_glb, d_endpoint = _digest_ints(seed, index, 3)
        jobs.append(
            RequestJob(
                index=index,
                endpoint=_pick_endpoint(d_endpoint),
                params={
                    "model": models[d_model % len(models)],
                    "glb_kb": glb_kb[d_glb % len(glb_kb)],
                },
            )
        )
    return jobs


def _comparable(result: dict[str, Any]) -> bytes:
    """A response result's canonical bytes minus the ``cache`` hit flag.

    The hit flag legitimately differs between the served call and the
    local oracle call (the second one always hits), so byte identity is
    defined over everything else.
    """
    return canonical_json({k: v for k, v in result.items() if k != "cache"})


def _verify_bytes(job: RequestJob, served_result: dict[str, Any]) -> bool:
    """Served payload == direct in-process handler payload, byte for byte."""
    status, envelope = execute(job.endpoint, job.params)
    if status != 200:
        return False
    return _comparable(served_result) == _comparable(envelope["result"])


def _one_request(url: str, job: RequestJob, verify: bool) -> RequestOutcome:
    """POST one job to the daemon and measure it."""
    request = urllib.request.Request(
        f"{url}/{job.endpoint}",
        data=json.dumps(job.params).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    start_ns = clock.monotonic_ns()
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            status = int(response.status)
            body = response.read()
    except urllib.error.HTTPError as exc:
        status = int(exc.code)
        body = exc.read()
    except (urllib.error.URLError, OSError):
        return RequestOutcome(job.endpoint, 0, False, False, 0.0, False)
    latency = clock.elapsed_seconds(start_ns)
    try:
        envelope = json.loads(body)
    except json.JSONDecodeError:
        return RequestOutcome(job.endpoint, status, False, False, latency, False)
    ok = status == 200 and bool(envelope.get("ok"))
    result = envelope.get("result") or {}
    cache_hit = bool(result.get("cache", {}).get("hit"))
    identical = (
        _verify_bytes(job, result) if (ok and verify) else ok
    )
    return RequestOutcome(
        job.endpoint, status, ok, cache_hit, latency, identical
    )


def _percentile(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class LoadReport:
    """Aggregate result of one load-generator run."""

    url: str
    clients: int
    seed: int
    outcomes: tuple[RequestOutcome, ...]
    wall_seconds: float

    @property
    def total(self) -> int:
        """Requests attempted."""
        return len(self.outcomes)

    @property
    def ok_count(self) -> int:
        """Requests that returned a 200 success envelope."""
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def error_count(self) -> int:
        """Requests that failed at any level (transport, status, body)."""
        return self.total - self.ok_count

    @property
    def hit_rate(self) -> float:
        """Fraction of successful requests served from the plan cache."""
        return (
            sum(1 for o in self.outcomes if o.ok and o.cache_hit) / self.ok_count
            if self.ok_count
            else 0.0
        )

    @property
    def byte_identical(self) -> bool:
        """True iff every successful response matched the local oracle."""
        return all(o.byte_identical for o in self.outcomes if o.ok)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        return self.total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def _latencies(self) -> list[float]:
        return sorted(o.latency_seconds for o in self.outcomes if o.ok)

    def latency_summary(self) -> dict[str, float]:
        """p50/p99/mean request latency in seconds."""
        latencies = self._latencies()
        return {
            "p50": _percentile(latencies, 0.50),
            "p99": _percentile(latencies, 0.99),
            "mean": sum(latencies) / len(latencies) if latencies else 0.0,
        }

    def bench_record(self) -> dict[str, Any]:
        """JSON-serializable perf record (``BENCH_serve.json``)."""
        from ..experiments import cache

        per_endpoint: dict[str, int] = {}
        for outcome in self.outcomes:
            per_endpoint[outcome.endpoint] = (
                per_endpoint.get(outcome.endpoint, 0) + 1
            )
        return {
            "schema": 1,
            "kind": "serve",
            "url": self.url,
            "clients": self.clients,
            "seed": self.seed,
            "requests": self.total,
            "ok": self.ok_count,
            "errors": self.error_count,
            "per_endpoint": dict(sorted(per_endpoint.items())),
            "hit_rate": self.hit_rate,
            "byte_identical": self.byte_identical,
            "latency_seconds": self.latency_summary(),
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "cache": {
                "enabled": cache.cache_enabled(),
                "dir": str(cache.cache_dir()),
                "schema_version": cache.CACHE_SCHEMA_VERSION,
                "entries": cache.entry_count(),
                "total_bytes": cache.total_bytes(),
            },
        }

    def write_bench(self, path: str | Path) -> None:
        """Write the perf record as JSON."""
        Path(path).write_text(json.dumps(self.bench_record(), indent=2) + "\n")


def run_load(
    url: str,
    *,
    clients: int = 4,
    requests: int = 24,
    seed: int = 0,
    models: tuple[str, ...] = DEFAULT_MODELS,
    glb_kb: tuple[int, ...] = DEFAULT_GLB_KB,
    verify: bool = True,
) -> LoadReport:
    """Replay the seeded mix against ``url`` with ``clients`` threads."""
    jobs = request_mix(seed, requests, models=models, glb_kb=glb_kb)
    start_ns = clock.monotonic_ns()
    with ThreadPoolExecutor(max_workers=max(1, clients)) as pool:
        outcomes = tuple(
            pool.map(lambda job: _one_request(url, job, verify), jobs)
        )
    return LoadReport(
        url=url,
        clients=clients,
        seed=seed,
        outcomes=outcomes,
        wall_seconds=clock.elapsed_seconds(start_ns),
    )


def bench_serve(
    *,
    clients: int = 4,
    requests: int = 24,
    seed: int = 0,
    url: str | None = None,
    jobs: int = 0,
    models: tuple[str, ...] = DEFAULT_MODELS,
    glb_kb: tuple[int, ...] = DEFAULT_GLB_KB,
    verify: bool = True,
    out: str | Path | None = "BENCH_serve.json",
) -> LoadReport:
    """One-shot benchmark: boot a daemon if needed, load it, report.

    With ``url=None`` an in-process :class:`ReproServer` is booted on an
    ephemeral port and torn down afterwards; pass ``--url`` to aim at an
    already-running daemon (CI's smoke job does both passes this way).
    """
    from .server import ReproServer

    server: ReproServer | None = None
    thread: threading.Thread | None = None
    if url is None:
        server = ReproServer("127.0.0.1", 0, jobs=jobs)
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve-bench", daemon=True
        )
        thread.start()
        url = f"http://127.0.0.1:{server.port}"
    try:
        report = run_load(
            url,
            clients=clients,
            requests=requests,
            seed=seed,
            models=models,
            glb_kb=glb_kb,
            verify=verify,
        )
    finally:
        if server is not None:
            server.shutdown()
            assert thread is not None
            thread.join()
            server.close()
    if out is not None:
        report.write_bench(out)
    return report
