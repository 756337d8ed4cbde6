"""Outside-in layer spans: ``bench.<layer>.<fn>`` around public functions.

The benchmark changes no code under ``src/``.  It times each layer by
rebinding the functions the layers call each other through to wrappers
that open a :mod:`repro.obs` span, in every ``repro`` module that
imported the name (``select_policy`` is rebound in both
``analyzer.planner`` and ``analyzer.delta``, for example).  Methods are
wrapped on their class.  :func:`install` returns the undo.

Wrappers read the active tracer at call time, so a wrapper installed
before tracing starts still records into the tracer of the timed region.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from typing import Any, Callable

from repro.obs import clock, get_tracer

Attrs = Callable[..., dict[str, object]]

#: Modules to import before rebinding, so every importer of a wrapped
#: name is already loaded (later importers copy the rebound name).
_IMPORTERS = (
    "repro",
    "repro.analyzer",
    "repro.manager",
    "repro.serve.server",
    "repro.serve.loadgen",
    "repro.dram",
    "repro.scalesim",
)


def _model(*args: Any, **kwargs: Any) -> dict[str, object]:
    return {"model": args[0].name}


def _layer(*args: Any, **kwargs: Any) -> dict[str, object]:
    return {"layer": args[0].name}


def _feasible(plan: Any) -> dict[str, object]:
    return {"feasible": plan is not None}


#: (span, module, function, attrs from the call, attrs from the result)
FUNCTIONS: tuple[tuple[str, str, str, Attrs | None, Callable[[Any], dict[str, object]] | None], ...] = (
    ("bench.analyzer.plan", "repro.analyzer.planner", "plan_heterogeneous", _model, None),
    ("bench.analyzer.plan", "repro.analyzer.planner", "plan_homogeneous", _model, None),
    ("bench.analyzer.select", "repro.analyzer.algorithm1", "select_policy", None, None),
    ("bench.analyzer.interlayer", "repro.analyzer.interlayer", "apply_opportunistic_interlayer", None, None),
    ("bench.analyzer.interlayer", "repro.analyzer.interlayer", "plan_chain_with_interlayer", None, None),
    ("bench.analyzer.export", "repro.analyzer.export", "plan_to_dict", None, None),
    ("bench.estimators.evaluate_layer", "repro.estimators.evaluate", "evaluate_layer", _layer, None),
    (
        "bench.estimators.evaluate_plans", "repro.estimators.evaluate", "evaluate_plans",
        lambda plans, spec: {"candidates": len(plans)}, None,
    ),
    ("bench.estimators.latency_batch", "repro.estimators.latency", "schedule_latency_batch", None, None),
    ("bench.dram.effective_bandwidth", "repro.dram.trace", "dram_effective_bandwidth", None, None),
    ("bench.dram.simulate_schedule", "repro.dram.trace", "simulate_schedule", None, None),
    ("bench.dram.simulate_plan", "repro.dram.planstats", "simulate_plan_dram", None, None),
    ("bench.cache.key", "repro.experiments.cache", "plan_cache_key", None, None),
    ("bench.cache.key", "repro.experiments.cache", "make_key", None, None),
    ("bench.cache.key", "repro.experiments.cache", "model_digest", None, None),
    ("bench.cache.lookup", "repro.experiments.cache", "lookup", None, lambda result: {"hit": result[0]}),
    ("bench.cache.store", "repro.experiments.cache", "store", None, None),
    ("bench.serve.execute", "repro.serve.handlers", "execute", None, None),
    ("bench.serve.encode", "repro.serve.protocol", "canonical_json", None, None),
    ("bench.scalesim.simulate", "repro.scalesim.simulator", "simulate", None, None),
)


def wrap(
    fn: Callable[..., Any],
    span: str,
    attrs: Attrs | None = None,
    result_attrs: Callable[[Any], dict[str, object]] | None = None,
) -> Callable[..., Any]:
    """``fn`` inside a span named ``span`` (same name/qualname, so pickle
    still finds pool-submitted functions by reference)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with get_tracer().start(span, **(attrs(*args, **kwargs) if attrs else {})) as live:
            result = fn(*args, **kwargs)
            for key, value in (result_attrs(result) if result_attrs else {}).items():
                live.set_attr(key, value)
            return result

    return wrapper


class Installation:
    """The rebindings one :func:`install` made, undone by :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def rebind(self, original: Callable[..., Any], replacement: Callable[..., Any]) -> None:
        """Point every ``repro`` module global bound to ``original`` at
        ``replacement``."""
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._undo.append(functools.partial(setattr, module, name, original))

    def set(self, owner: Any, name: str, replacement: Any) -> None:
        """Set ``owner.name`` (a class attribute), remembering the old value."""
        original = owner.__dict__[name]
        setattr(owner, name, replacement)
        self._undo.append(functools.partial(setattr, owner, name, original))

    def uninstall(self) -> None:
        """Restore every rebinding, newest first."""
        while self._undo:
            self._undo.pop()()


def install() -> Installation:
    """Wrap every layer boundary the benchmark traces."""
    for name in _IMPORTERS:
        importlib.import_module(name)
    from repro.analyzer.plan import ExecutionPlan
    from repro.policies.registry import FALLBACK_POLICY, NAMED_POLICIES

    done = Installation()
    for span, module, function, attrs, result_attrs in FUNCTIONS:
        original = getattr(importlib.import_module(module), function)
        done.rebind(original, wrap(original, span, attrs, result_attrs))

    for policy in {type(policy) for policy in NAMED_POLICIES}:
        if "plan" in policy.__dict__:
            done.set(policy, "plan", wrap(policy.__dict__["plan"], "bench.policies.plan", None, _feasible))
    fallback = type(FALLBACK_POLICY)
    done.set(fallback, "plan", wrap(fallback.__dict__["plan"], "bench.policies.tiled_plan", None, _feasible))
    done.set(ExecutionPlan, "explain", wrap(ExecutionPlan.__dict__["explain"], "bench.analyzer.explain"))
    return done


class GcMonitor:
    """``gc.callbacks`` hook: gen-2 collections and total collector pause."""

    def __init__(self) -> None:
        self.gen2_count = 0
        self.pause_ns = 0
        self._start_ns = 0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._start_ns = clock.monotonic_ns()
            return
        self.pause_ns += clock.monotonic_ns() - self._start_ns
        if info["generation"] == 2:
            self.gen2_count += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)
