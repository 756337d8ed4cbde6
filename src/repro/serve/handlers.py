"""Endpoint handlers: validated request params → response payloads.

Each ``handle_<endpoint>`` function is pure with respect to its inputs
(same request, same cache state → same payload bytes) and HTTP-free, so
the same code path serves three callers:

* the daemon's handler threads and worker pool (through :func:`render`,
  the module-level function :class:`~repro.serve.server.ReproServer`
  submits, hence picklable),
* in-process dispatch (``--jobs 0``) and unit tests,
* the load generator's byte-identity oracle (it computes the expected
  payload by calling the handler directly and compares it against the
  served bytes).

The daemon wraps :func:`execute` with *reply entries*: the exact
response body of a ``plan``, ``explain`` or ``simulate`` request in
the form a cache hit renders, stored in the shared cache the first time
the request is answered and sent again, after one file read, to every
later identical request, so each request is rendered once.  Its accept
loop derives a request's key (:func:`reply_key`, once per distinct body)
and looks the reply up under it (:func:`cached_reply`); a handler thread
renders and stores one (:func:`render`); :func:`respond` is the three in
one call.

Each ``handle_*`` function declares itself a concurrent thread root for
the concurrency lint (R060): :func:`execute` reaches it through the
:data:`HANDLERS` table, which the call graph cannot follow, and the
daemon's handler pool and the load generator's client pool both run it.
So an unlocked shared-state write reachable from a serve endpoint is
flagged with a witness chain in ``repro lint``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from ..analyzer import ExecutionPlan, Objective
from ..analyzer.export import plan_to_dict
from ..arch.spec import AcceleratorSpec
from ..arch.units import kib
from ..manager import MemoryManager
from ..nn.zoo import ALL_MODEL_NAMES, find_model_name, get_model
from ..obs import metrics_registry
from .protocol import (
    ENDPOINTS,
    POST_ENDPOINTS,
    ProtocolError,
    PlanRequest,
    canonical_json,
    error_response,
    ok_response,
    parse_plan_request,
)


def _resolve_model_name(name: str) -> str:
    """Map a request's model name onto the zoo (case-insensitive)."""
    canonical = find_model_name(name)
    if canonical is None:
        raise ProtocolError(
            "unknown-model",
            f"unknown model {name!r}; available: {', '.join(ALL_MODEL_NAMES)}",
            http_status=404,
        )
    return canonical


def request_spec(request: PlanRequest, *, baselines: bool = False) -> AcceleratorSpec:
    """The accelerator a request names: a ``bad-request`` outside
    :mod:`repro.arch.bounds` or, with ``baselines``, when the GLB is too
    small for the baseline partitions."""
    try:
        spec = AcceleratorSpec(
            glb_bytes=kib(request.glb_kb),
            data_width_bits=request.data_width_bits,
            ops_per_cycle=request.ops_per_cycle,
            dram_bandwidth_elems_per_cycle=request.dram_bandwidth_elems_per_cycle,
        )
        if baselines:
            from ..scalesim import baseline_configs

            baseline_configs(spec.glb_bytes, data_width_bits=spec.data_width_bits)
    except ValueError as exc:
        raise ProtocolError("bad-request", str(exc)) from exc
    return spec


def _canonical_request(endpoint: str, params: Any) -> tuple[PlanRequest, AcceleratorSpec]:
    """Parse, normalize and validate a request; returns it with its spec.

    Normalizing the model name here means the echoed ``result["request"]``
    — and hence the full response payload — is identical however the
    client cased the model name.  A request the endpoint cannot serve
    (see :func:`request_spec`) is a ``bad-request`` raised here, before
    any cache lookup.
    """
    request = parse_plan_request(params)
    request = replace(request, model=_resolve_model_name(request.model))
    return request, request_spec(request, baselines=endpoint == "simulate")


def handle_health(  # repro: thread-root[concurrent] -- endpoint
    params: Any = None
) -> dict[str, Any]:
    """Liveness probe: daemon status and cache configuration."""
    from ..experiments import cache

    return {
        "status": "ok",
        "cache_enabled": cache.cache_enabled(),
        "cache_schema_version": cache.CACHE_SCHEMA_VERSION,
    }


def handle_models(  # repro: thread-root[concurrent] -- endpoint
    params: Any = None
) -> dict[str, Any]:
    """The model registry: every zoo network with its headline stats."""
    models = []
    for name in ALL_MODEL_NAMES:
        model = get_model(name)
        models.append(
            {
                "name": name,
                "layers": model.num_layers,
                "macs": model.total_macs,
                "weight_elems": model.total_weight_elems,
            }
        )
    return {"models": models}


def handle_stats(  # repro: thread-root[concurrent] -- endpoint
    params: Any = None
) -> dict[str, Any]:
    """Shared-cache statistics: entries, bytes, this-process counters."""
    from ..experiments import cache

    return {
        "cache": {
            "enabled": cache.cache_enabled(),
            "dir": str(cache.cache_dir()),
            "schema_version": cache.CACHE_SCHEMA_VERSION,
            "entries": cache.entry_count(),
            "total_bytes": cache.total_bytes(),
            "max_bytes": cache.cache_max_bytes(),
            "counters": cache.counters(),
        }
    }


def _planned(
    endpoint: str, params: Any
) -> tuple[PlanRequest, ExecutionPlan, dict[str, Any]]:
    """Parse a ``plan`` or ``explain`` request and plan it through the
    shared cache: the request, its plan and the ``cache`` sub-object."""
    request, spec = _canonical_request(endpoint, params)
    try:
        plan, hit, key = MemoryManager(spec).plan_cached(
            get_model(request.model),
            Objective(request.objective),
            scheme=request.scheme,
            prefetch=request.prefetch,
            interlayer=request.interlayer,
            interlayer_mode=request.interlayer_mode,
        )
    except ValueError as exc:  # infeasible
        raise ProtocolError("bad-request", str(exc)) from exc
    return request, plan, {"hit": hit, "key": key}


def handle_plan(  # repro: thread-root[concurrent] -- endpoint
    params: Any
) -> dict[str, Any]:
    """Plan a model through the shared cache; the daemon's core endpoint.

    The response's ``plan`` sub-object is byte-identical (under
    :func:`~repro.serve.protocol.canonical_json`) to
    ``plan_to_dict(MemoryManager(spec).plan_cached(...)[0])`` for the same
    request — the acceptance property the load generator asserts.
    """
    request, plan, cached = _planned("plan", params)
    return {"request": request.to_params(), "plan": plan_to_dict(plan), "cache": cached}


def handle_explain(  # repro: thread-root[concurrent] -- endpoint
    params: Any
) -> dict[str, Any]:
    """The planner's per-layer decision audit trail for one request."""
    request, plan, cached = _planned("explain", params)
    return {
        "request": request.to_params(),
        "explain": plan.explain().to_payload(),
        "cache": cached,
    }


def handle_simulate(  # repro: thread-root[concurrent] -- endpoint
    params: Any
) -> dict[str, Any]:
    """Simulate the three fixed-partition baselines for one request.

    Results go through the same content-addressed cache as the
    experiment suite's ``baseline`` entries (identical keys), so a
    daemon serving simulate traffic warms the Fig. 5/8 artifacts too.
    """
    request, spec = _canonical_request("simulate", params)
    results, hit, key = MemoryManager(spec).baselines_cached_detail(get_model(request.model))
    return {
        "request": request.to_params(),
        "baselines": {
            label: {
                "traffic_bytes": result.total_traffic_bytes,
                "cycles": result.total_cycles,
                "mean_utilization": result.mean_utilization,
            }
            for label, result in results.items()
        },
        "cache": {"hit": hit, "key": key},
    }


#: endpoint → handler (the daemon's and the pool's dispatch table).
HANDLERS: dict[str, Callable[[Any], dict[str, Any]]] = {
    "health": handle_health,
    "models": handle_models,
    "stats": handle_stats,
    "plan": handle_plan,
    "explain": handle_explain,
    "simulate": handle_simulate,
}


def execute(endpoint: str, params: Any = None) -> tuple[int, dict[str, Any]]:
    """Dispatch one request; returns ``(http_status, response_envelope)``.

    Every failure mode becomes a structured ``repro-serve/1`` error
    envelope, never a traceback on the wire.
    """
    if endpoint not in ENDPOINTS:
        return 404, error_response(
            endpoint,
            "unknown-endpoint",
            f"unknown endpoint {endpoint!r}; available: {', '.join(ENDPOINTS)}",
        )
    try:
        result = HANDLERS[endpoint](params)
    except ProtocolError as exc:
        return exc.http_status, error_response(endpoint, exc.code, exc.message)
    except Exception as exc:  # pragma: no cover - defensive boundary
        return 500, error_response(
            endpoint, "internal", f"{type(exc).__name__}: {exc}"
        )
    return 200, ok_response(endpoint, result)


@functools.cache
def code_digest() -> str:
    """SHA-256 of the ``repro`` package's ``.py`` sources, once per process.

    Part of every reply key, so a reply rendered by other code is never
    served.  Requests name only zoo models, which the sources define, so
    the digest covers model content too.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix().encode()
        source = path.read_bytes()
        digest.update(b"%s\0%d\0" % (name, len(source)))
        digest.update(source)
    return digest.hexdigest()


def reply_key(endpoint: str, params: Any) -> str | None:
    """The reply-entry key of a request, or ``None`` when it has none.

    Only ``plan``/``explain``/``simulate`` requests the endpoint can
    serve have one, so a bad request looks nothing up; the request is
    keyed in its canonical form, so differently cased model
    names share an entry.
    """
    from ..experiments import cache

    if endpoint not in POST_ENDPOINTS:
        return None
    try:
        request, _spec = _canonical_request(endpoint, params)
    except ProtocolError:
        return None
    return cache.make_key(
        "reply", endpoint=endpoint, request=request.to_params(), code=code_digest()
    )


def cached_reply(key: str) -> bytes | None:
    """The body stored under a reply key (None when no entry exists).

    The daemon's accept loop runs this on every request that has a key
    (see :func:`reply_key`) and sends a stored body as it is: one file
    read, no unpickling and no rendering.
    """
    from ..experiments import cache

    hit, body = cache.lookup(key)
    if not hit:
        return None
    metrics_registry().counter("serve_reply_hits_count").add(1)
    return body  # type: ignore[no-any-return]


def render(endpoint: str, params: Any, key: str | None) -> tuple[int, bytes]:
    """Render one request: ``(http_status, canonical_json(envelope))``.

    A 200 body is stored under ``key`` (the request's reply key) as the
    body a cache hit renders, so a stored body always says ``"hit":
    true`` and a request is rendered once.  A miss's body differs from
    its hit's only in that flag, so the miss stores a copy with its one
    ``"cache"`` object spliced to the hit form, not a second encode;
    when that object does not occur exactly once, nothing is stored and
    the first hit renders and stores.  Errors are never stored.
    Module-level, so the daemon's handler threads run it in-process or
    submit it to the process pool.
    """
    from ..experiments import cache

    status, envelope = execute(endpoint, params)
    body = canonical_json(envelope)
    if key is not None and status == 200:
        cached = envelope["result"]["cache"]
        if cached["hit"]:
            cache.store(key, body)
        else:
            miss = b'"cache":' + canonical_json(cached)
            hit = b'"cache":' + canonical_json({**cached, "hit": True})
            if body.count(miss) == 1:
                cache.store(key, body.replace(miss, hit))
    return status, body


def respond(endpoint: str, params: Any = None) -> tuple[int, bytes]:
    """Answer one request as the daemon does: the stored reply if there
    is one, else :func:`render` (``(http_status, response body bytes)``)."""
    key = reply_key(endpoint, params)
    body = None if key is None else cached_reply(key)
    return (200, body) if body is not None else render(endpoint, params, key)
