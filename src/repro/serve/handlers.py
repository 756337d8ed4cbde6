"""Endpoint handlers: validated request params → response payloads.

Each ``handle_<endpoint>`` function is pure with respect to its inputs
(same request, same cache state → same payload bytes) and HTTP-free, so
the same code path serves three callers:

* the daemon's worker pool (:func:`execute` is the module-level function
  :class:`~repro.serve.server.ReproServer` submits, hence picklable),
* in-process dispatch (``--jobs 0``) and unit tests,
* the load generator's byte-identity oracle (it computes the expected
  payload by calling the handler directly and compares it against the
  served bytes).

The daemon itself calls :func:`respond`, which wraps :func:`execute`
with *reply entries*: the exact response body of a ``plan``,
``explain`` or ``simulate`` request, stored in the shared cache the
first time the request is answered from a cache hit and sent again,
after one file read, to every later identical request.

The ``handle_`` prefix is a naming contract: the concurrency lint
(R060–R066) treats every ``handle_*`` function as a thread root that
runs concurrently with itself, so unlocked shared-state writes reachable
from a serve endpoint are flagged with a witness chain in ``repro
lint``.  Nondeterministic calls are flagged wherever they occur (R010).
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


def handle_health(params: Any = None) -> dict[str, Any]:
    """Liveness probe: daemon status and cache configuration."""
    from ..experiments import cache

    return {
        "status": "ok",
        "cache_enabled": cache.cache_enabled(),
        "cache_schema_version": cache.CACHE_SCHEMA_VERSION,
    }


def handle_models(params: Any = None) -> dict[str, Any]:
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


def handle_stats(params: Any = None) -> dict[str, Any]:
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
        plan, hit, key = MemoryManager(spec).plan_cached_detail(
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


def handle_plan(params: Any) -> dict[str, Any]:
    """Plan a model through the shared cache; the daemon's core endpoint.

    The response's ``plan`` sub-object is byte-identical (under
    :func:`~repro.serve.protocol.canonical_json`) to
    ``plan_to_dict(MemoryManager(spec).plan_cached(...))`` for the same
    request — the acceptance property the load generator asserts.
    """
    request, plan, cached = _planned("plan", params)
    return {"request": request.to_params(), "plan": plan_to_dict(plan), "cache": cached}


def handle_explain(params: Any) -> dict[str, Any]:
    """The planner's per-layer decision audit trail for one request."""
    request, plan, cached = _planned("explain", params)
    return {
        "request": request.to_params(),
        "explain": plan.explain().to_payload(),
        "cache": cached,
    }


def handle_simulate(params: Any) -> dict[str, Any]:
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

    Module-level (hence picklable) so :class:`ReproServer` can submit it
    to the process pool; every failure mode becomes a structured
    ``repro-serve/1`` error envelope, never a traceback on the wire.
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


def respond(endpoint: str, params: Any = None) -> tuple[int, bytes]:
    """Answer one request: ``(http_status, response body bytes)``.

    The body is ``canonical_json(execute(endpoint, params)[1])``.  A
    request whose reply entry exists is answered from it with no
    unpickling and no rendering.  A reply is stored only when
    :func:`execute` answered from a cache hit, so a stored body always
    says ``"hit": true`` and a request is rendered at most twice (on its
    miss and on its first hit); misses and errors are never stored.
    """
    from ..experiments import cache

    key = reply_key(endpoint, params)
    if key is not None:
        hit, body = cache.lookup(key)
        if hit:
            metrics_registry().counter("serve_reply_hits_count").add(1)
            return 200, body
    status, envelope = execute(endpoint, params)
    body = canonical_json(envelope)
    if key is not None and status == 200 and envelope["result"]["cache"]["hit"]:
        cache.store(key, body)
    return status, body
