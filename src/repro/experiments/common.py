"""Shared configuration and plan caching for the experiment generators.

All experiments use the paper's reference accelerator (§4): 16×16 PEs,
512 OPs/cycle, 8-bit data, 16 elements/cycle off-chip bandwidth, GLB ∈
{64, 128, 256, 512, 1024} kB, batch 1, layer-by-layer execution.

Plans and baseline runs are memoized at two levels: an in-process
``lru_cache`` and the persistent, content-addressed on-disk cache in
:mod:`repro.experiments.cache`, which the ``repro serve`` daemon shares,
so the experiment suite and the engine's worker pool never recompute
identical analyses.  ``Het`` and ``Hom`` plans reach the disk through
:meth:`repro.manager.MemoryManager.plan_cached` and baseline runs
through :meth:`~repro.manager.MemoryManager.baselines_cached_detail`;
the rescue-only plan (:func:`named_only_plan`), which is not a serve
scheme, calls :func:`repro.experiments.cache.fetch` directly.

Every cached value is immutable from the caller's perspective:
:class:`~repro.analyzer.ExecutionPlan` is a frozen dataclass, and
:func:`baseline_results` returns a read-only mapping.  Mutating a cached
result would silently corrupt every later artifact in the same process,
so the types enforce it.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from ..analyzer import ExecutionPlan, Objective, plan_named_only
from ..arch.spec import PAPER_GLB_SIZES, AcceleratorSpec
from ..arch.units import kib
from ..estimators.evaluate import clear_evaluation_memo
from ..manager import MemoryManager
from ..nn.zoo import PAPER_MODEL_NAMES, get_model
from ..scalesim import SimulationResult
from . import cache

#: GLB sizes in kB, as labeled on the paper's x-axes.
GLB_SIZES_KB = tuple(size // kib(1) for size in PAPER_GLB_SIZES)


def spec_for(glb_kb: int, data_width_bits: int = 8) -> AcceleratorSpec:
    """The paper's accelerator spec at one GLB size / data width."""
    return AcceleratorSpec(glb_bytes=kib(glb_kb), data_width_bits=data_width_bits)


@lru_cache(maxsize=None)
def het_plan(
    model_name: str,
    glb_kb: int,
    objective: Objective = Objective.ACCESSES,
    data_width_bits: int = 8,
    allow_prefetch: bool = True,
    interlayer: bool = False,
    interlayer_mode: str = "opportunistic",
) -> ExecutionPlan:
    """Cached heterogeneous plan (in-process + persistent on-disk)."""
    return MemoryManager(spec_for(glb_kb, data_width_bits)).plan_cached(
        get_model(model_name),
        objective,
        prefetch=allow_prefetch,
        interlayer=interlayer,
        interlayer_mode=interlayer_mode,
    )


@lru_cache(maxsize=None)
def hom_plan(
    model_name: str,
    glb_kb: int,
    objective: Objective = Objective.ACCESSES,
    data_width_bits: int = 8,
    allow_prefetch: bool = True,
) -> ExecutionPlan:
    """Cached best homogeneous plan (in-process + persistent on-disk)."""
    return MemoryManager(spec_for(glb_kb, data_width_bits)).plan_cached(
        get_model(model_name), objective, scheme="hom", prefetch=allow_prefetch
    )


@lru_cache(maxsize=None)
def named_only_plan(
    model_name: str, glb_kb: int, objective: Objective = Objective.ACCESSES
) -> ExecutionPlan:
    """Cached rescue-only ``Het`` plan (:func:`~repro.analyzer.plan_named_only`,
    in-process + persistent on-disk)."""
    model = get_model(model_name)
    spec = spec_for(glb_kb)
    key = cache.plan_cache_key("het(named-only)", model, spec, objective)
    return cache.fetch(key, lambda: plan_named_only(model, spec, objective))


@lru_cache(maxsize=None)
def baseline_results(
    model_name: str, glb_kb: int, data_width_bits: int = 8
) -> Mapping[str, SimulationResult]:
    """Cached SCALE-Sim baseline runs for the three partitions.

    Returns a **read-only** mapping: the underlying dict is shared with
    every later caller in the process (and with the on-disk cache), so
    mutation would corrupt subsequent artifacts.
    """
    manager = MemoryManager(spec_for(glb_kb, data_width_bits))
    results, _hit, _key = manager.baselines_cached_detail(get_model(model_name))
    return MappingProxyType(results)


def clear_in_process_caches() -> None:
    """Drop the in-process memoization (the on-disk cache is untouched)."""
    het_plan.cache_clear()
    hom_plan.cache_clear()
    named_only_plan.cache_clear()
    baseline_results.cache_clear()
    clear_evaluation_memo()


def all_model_names() -> tuple[str, ...]:
    """The six paper models, in Table 2 order."""
    return PAPER_MODEL_NAMES
