"""The ``repro-serve/1`` JSON protocol: requests, responses, errors.

Every daemon response — success or failure — is one envelope::

    {
      "schema": "repro-serve/1",
      "ok": true | false,
      "endpoint": "plan" | "explain" | "simulate" | "models" | "health"
                  | "stats",
      "result": {...} | null,        # exactly one of result/error is set
      "error": {"code": str, "message": str} | null
    }

POST bodies are plain JSON parameter objects (no envelope); the
:class:`PlanRequest` dataclass is their validated form.  Malformed JSON,
unknown endpoints, unknown models and bad parameter types all map to
structured error envelopes with non-2xx HTTP statuses — a client never
sees a traceback.

:func:`repro.report.diagnostics.validate_serve_payload` is the
envelope's executable schema definition, in the same style as
``repro-diagnostics/1`` and ``repro-telemetry/1``; a regression test
pins the two schema-id literals together.

:func:`canonical_json` renders payloads with sorted keys and fixed
separators, so two processes serializing the same plan produce the same
bytes — the property the load generator's byte-identity check and the
acceptance criteria rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..analyzer.planner import SCHEMES

#: Identifier of the serving schema (bump on incompatible changes).
SERVE_SCHEMA_ID = "repro-serve/1"

#: Every endpoint the daemon exposes (GET: health/models/stats;
#: POST: plan/explain/simulate).
ENDPOINTS: tuple[str, ...] = (
    "health",
    "models",
    "stats",
    "plan",
    "explain",
    "simulate",
)

#: Endpoints that accept a POST parameter body.
POST_ENDPOINTS: tuple[str, ...] = ("plan", "explain", "simulate")

#: Structured error codes an envelope may carry.
ERROR_CODES: tuple[str, ...] = (
    "invalid-json",
    "unknown-endpoint",
    "bad-request",
    "unknown-model",
    "internal",
)


class ProtocolError(Exception):
    """A request that cannot be served, with its structured error code."""

    def __init__(self, code: str, message: str, http_status: int = 400) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = http_status


def ok_response(endpoint: str, result: dict[str, Any]) -> dict[str, Any]:
    """A success envelope for one endpoint."""
    return {
        "schema": SERVE_SCHEMA_ID,
        "ok": True,
        "endpoint": endpoint,
        "result": result,
        "error": None,
    }


def error_response(endpoint: str, code: str, message: str) -> dict[str, Any]:
    """A failure envelope carrying a structured error."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    return {
        "schema": SERVE_SCHEMA_ID,
        "ok": False,
        "endpoint": endpoint,
        "result": None,
        "error": {"code": code, "message": message},
    }


def canonical_json(payload: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, fixed separators, UTF-8."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode()


@dataclass(frozen=True)
class PlanRequest:
    """Validated parameters of a plan / explain / simulate request.

    Mirrors the knobs of :meth:`repro.manager.MemoryManager.plan_cached`
    plus the accelerator-spec fields the CLI exposes.  These defaults are
    the CLI's too: its flags read them from this class.
    """

    model: str
    glb_kb: int = 64
    data_width_bits: int = 8
    ops_per_cycle: int = 512
    dram_bandwidth_elems_per_cycle: float = 16.0
    objective: str = "accesses"
    scheme: str = "het"
    prefetch: bool = True
    interlayer: bool = False
    interlayer_mode: str = "opportunistic"

    def to_params(self) -> dict[str, Any]:
        """The request back as a plain JSON parameter object."""
        return {
            "model": self.model,
            "glb_kb": self.glb_kb,
            "data_width_bits": self.data_width_bits,
            "ops_per_cycle": self.ops_per_cycle,
            "dram_bandwidth_elems_per_cycle": self.dram_bandwidth_elems_per_cycle,
            "objective": self.objective,
            "scheme": self.scheme,
            "prefetch": self.prefetch,
            "interlayer": self.interlayer,
            "interlayer_mode": self.interlayer_mode,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError("bad-request", message)


def parse_plan_request(params: Any) -> PlanRequest:
    """Validate a POST parameter object into a :class:`PlanRequest`.

    Raises :class:`ProtocolError` (code ``bad-request``) on missing or
    ill-typed fields; unknown fields are rejected too, so client typos
    (``"objektive"``) fail loudly instead of silently using defaults.
    The spec fields' ranges are :class:`~repro.arch.spec.AcceleratorSpec`'s
    to check (:func:`repro.serve.handlers.request_spec`).
    """
    _require(isinstance(params, dict), "request body must be a JSON object")
    assert isinstance(params, dict)
    known = set(PlanRequest.__dataclass_fields__)
    unknown = sorted(set(params) - known)
    _require(not unknown, f"unknown parameter(s): {', '.join(unknown)}")
    model = params.get("model")
    _require(
        isinstance(model, str) and bool(model),
        "'model' must be a non-empty string (a zoo model name)",
    )
    merged: dict[str, Any] = {"model": model}
    for name, kinds, what in (
        ("glb_kb", int, "an integer"),
        ("data_width_bits", int, "an integer"),
        ("ops_per_cycle", int, "an integer"),
        ("dram_bandwidth_elems_per_cycle", (int, float), "a number"),
    ):
        if name in params:
            value = params[name]
            _require(
                isinstance(value, kinds) and not isinstance(value, bool),
                f"{name!r} must be {what}",
            )
            merged[name] = value if kinds is int else float(value)
    if "objective" in params:
        objective = params["objective"]
        _require(
            objective in ("accesses", "latency"),
            "'objective' must be 'accesses' or 'latency'",
        )
        merged["objective"] = objective
    if "scheme" in params:
        scheme = params["scheme"]
        _require(
            scheme in SCHEMES, f"unknown scheme {scheme!r}; choose one of {', '.join(SCHEMES)}"
        )
        merged["scheme"] = scheme
    for flag in ("prefetch", "interlayer"):
        if flag in params:
            value = params[flag]
            _require(isinstance(value, bool), f"{flag!r} must be a boolean")
            merged[flag] = value
    if "interlayer_mode" in params:
        mode = params["interlayer_mode"]
        _require(
            mode in ("opportunistic", "joint"),
            "'interlayer_mode' must be 'opportunistic' or 'joint'",
        )
        merged["interlayer_mode"] = mode
    request = PlanRequest(**merged)
    _require(
        not (request.interlayer and request.scheme != "het"),
        "inter-layer reuse is only supported for the het scheme",
    )
    return request
