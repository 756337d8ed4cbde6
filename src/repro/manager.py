"""Top-level memory-manager facade (the paper's Fig. 4 operational flow).

The paper's RAINBOW-based tool takes a CNN model description and the
accelerator specification, estimates every policy per layer, and emits an
execution plan for the chosen objective.  :class:`MemoryManager` packages
that flow behind one object so applications do not need to assemble the
analyzer pipeline by hand::

    from repro import AcceleratorSpec
    from repro.manager import MemoryManager
    from repro.nn.zoo import get_model

    manager = MemoryManager(AcceleratorSpec(glb_bytes=64 * 1024))
    plan = manager.plan(get_model("ResNet18"))          # Het, min accesses
    report = manager.compare_with_baseline(get_model("ResNet18"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .analyzer import (
    ExecutionPlan,
    Objective,
    best_homogeneous,
    plan_heterogeneous,
    plan_homogeneous,
)
from .analyzer.planner import SCHEMES
from .arch.spec import AcceleratorSpec
from .nn.model import Model
from .obs import clock, get_tracer, metrics_registry
from .scalesim.presets import baseline_configs
from .scalesim.simulator import SimulationResult, simulate


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {', '.join(SCHEMES)}")


@dataclass(frozen=True)
class BaselineComparison:
    """Proposed plan vs the three fixed-partition baselines."""

    plan: ExecutionPlan
    baselines: dict[str, SimulationResult]

    @property
    def best_baseline_label(self) -> str:
        return min(self.baselines, key=lambda k: self.baselines[k].total_traffic_bytes)

    @property
    def accesses_reduction_pct(self) -> float:
        """Reduction of off-chip accesses vs the best baseline partition."""
        best = self.baselines[self.best_baseline_label].total_traffic_bytes
        return 100.0 * (1.0 - self.plan.total_accesses_bytes / best)

    @property
    def latency_reduction_pct(self) -> float:
        """Latency reduction vs the zero-stall baseline compute time."""
        base = next(iter(self.baselines.values())).total_cycles
        return 100.0 * (1.0 - self.plan.total_latency_cycles / base)


class MemoryManager:
    """Scratchpad memory manager for a fixed accelerator specification."""

    def __init__(self, spec: AcceleratorSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(
        self,
        model: Model,
        objective: Objective = Objective.ACCESSES,
        *,
        scheme: str = "het",
        prefetch: bool = True,
        interlayer: bool = False,
        interlayer_mode: str = "opportunistic",
    ) -> ExecutionPlan:
        """Produce an execution plan.

        ``scheme`` is ``"het"`` (Algorithm 1 per layer), ``"hom"`` (best
        single policy family) or ``"hom(<family>)"`` for a specific family.
        """
        _check_scheme(scheme)
        if scheme == "het":
            return plan_heterogeneous(
                model,
                self.spec,
                objective,
                allow_prefetch=prefetch,
                interlayer=interlayer,
                interlayer_mode=interlayer_mode,
            )
        if interlayer:
            raise ValueError("inter-layer reuse is only supported for the het scheme")
        if scheme == "hom":
            return best_homogeneous(model, self.spec, objective, allow_prefetch=prefetch)
        plan = plan_homogeneous(model, self.spec, scheme[4:-1], objective, allow_prefetch=prefetch)
        if plan is None:
            raise ValueError(f"{scheme} cannot fit {model.name} in this GLB")
        return plan

    def plan_cached(
        self,
        model: Model,
        objective: Objective = Objective.ACCESSES,
        *,
        scheme: str = "het",
        prefetch: bool = True,
        interlayer: bool = False,
        interlayer_mode: str = "opportunistic",
    ) -> tuple[ExecutionPlan, bool, str]:
        """:meth:`plan` through the persistent on-disk plan cache:
        ``(plan, cache_hit, cache_key)``.

        The key covers the model's full layer-dimension digest, every
        spec field (``data_width_bits`` and DRAM configuration included)
        and all planning flags, so any change to the inputs is a cache
        miss.  The experiment suite (:func:`repro.experiments.common.plan`)
        and the ``repro serve`` daemon both plan through it, so a plan
        computed by either warms the other; the daemon reports the hit
        flag and key per request.  Set ``REPRO_NO_CACHE=1`` to force
        recomputation.
        """
        from .experiments import cache

        _check_scheme(scheme)  # before hashing the model or probing the disk
        key = cache.plan_cache_key(
            scheme,
            model,
            self.spec,
            objective,
            allow_prefetch=prefetch,
            interlayer=interlayer,
            interlayer_mode=interlayer_mode,
        )
        start_ns = clock.monotonic_ns()
        with get_tracer().start(
            "plan_cached", model=model.name, scheme=scheme
        ) as span:
            plan, hit = cache.fetch(
                key,
                lambda: self.plan(
                    model,
                    objective,
                    scheme=scheme,
                    prefetch=prefetch,
                    interlayer=interlayer,
                    interlayer_mode=interlayer_mode,
                ),
            )
            span.set_attr("cache_hit", hit)
        metrics_registry().histogram("plan_cached_seconds").observe(
            clock.elapsed_seconds(start_ns)
        )
        return plan, hit, key

    # ------------------------------------------------------------------
    # Baseline comparison
    # ------------------------------------------------------------------

    def compare_with_baseline(
        self,
        model: Model,
        objective: Objective = Objective.ACCESSES,
        **plan_kwargs: Any,
    ) -> BaselineComparison:
        """Plan the model and simulate the three §4 baseline partitions."""
        plan = self.plan(model, objective, **plan_kwargs)
        return BaselineComparison(plan=plan, baselines=self.simulate_baselines(model))

    def simulate_baselines(self, model: Model) -> dict[str, SimulationResult]:
        """Simulate the three §4 fixed-partition baselines (SCALE-Sim)."""
        configs = baseline_configs(
            self.spec.glb_bytes, data_width_bits=self.spec.data_width_bits
        )
        return {label: simulate(model, cfg) for label, cfg in configs.items()}

    def baselines_cached_detail(
        self, model: Model
    ) -> tuple[dict[str, SimulationResult], bool, str]:
        """``(results, cache_hit, cache_key)`` of :meth:`simulate_baselines`
        through the persistent cache, which the experiment suite and the
        ``repro serve`` ``simulate`` endpoint share."""
        from .experiments import cache

        key = cache.baseline_cache_key(model, self.spec)
        results, hit = cache.fetch(key, lambda: self.simulate_baselines(model))
        return results, hit, key
