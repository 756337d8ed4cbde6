"""Shared configuration and plan caching for the experiment generators.

All experiments use the paper's reference accelerator (§4): 16×16 PEs,
512 OPs/cycle, 8-bit data, 16 elements/cycle off-chip bandwidth, GLB ∈
{64, 128, 256, 512, 1024} kB, batch 1, layer-by-layer execution.

Plans and baseline runs are memoized twice, on the content keys of
:mod:`repro.experiments.cache`: in one in-process dict, so every
spelling of one analysis shares an entry, in front of the persistent
on-disk cache that the engine's workers and ``repro serve`` share.

Every cached value is immutable from the caller's perspective:
:class:`~repro.analyzer.ExecutionPlan` is a frozen dataclass, and
:func:`baseline_results` returns a read-only mapping.  Mutating a cached
result would silently corrupt every later artifact in the same process,
so the types enforce it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping

from ..analyzer import ExecutionPlan, Objective, plan_named_only
from ..arch.spec import PAPER_GLB_SIZES, AcceleratorSpec
from ..arch.units import kib
from ..estimators.evaluate import clear_evaluation_memo
from ..manager import MemoryManager
from ..nn.model import Model
from ..nn.zoo import PAPER_MODEL_NAMES, get_model
from ..scalesim import SimulationResult
from . import cache

#: GLB sizes in kB, as labeled on the paper's x-axes.
GLB_SIZES_KB = tuple(size // kib(1) for size in PAPER_GLB_SIZES)


def spec_for(glb_kb: int, data_width_bits: int = 8) -> AcceleratorSpec:
    """The paper's accelerator spec at one GLB size / data width."""
    return AcceleratorSpec(glb_bytes=kib(glb_kb), data_width_bits=data_width_bits)


#: Content key -> plan or read-only baseline mapping, for this process.
_MEMO: dict[str, Any] = {}


def plan(
    model: Model,
    spec: AcceleratorSpec,
    objective: Objective = Objective.ACCESSES,
    scheme: str = "het",
    *,
    prefetch: bool = True,
    interlayer: bool = False,
    interlayer_mode: str = "opportunistic",
) -> ExecutionPlan:
    """Cached plan (in-process + persistent on-disk); ``scheme`` is a
    :meth:`~repro.manager.MemoryManager.plan` scheme or ``"het(named-only)"``
    (:func:`~repro.analyzer.plan_named_only`, which takes no inter-layer flags)."""
    key = cache.plan_cache_key(
        scheme,
        model,
        spec,
        objective,
        allow_prefetch=prefetch,
        interlayer=interlayer,
        interlayer_mode=interlayer_mode,
    )
    if key not in _MEMO:
        if scheme == "het(named-only)":
            _MEMO[key] = cache.fetch(
                key, lambda: plan_named_only(model, spec, objective, allow_prefetch=prefetch)
            )[0]
        else:
            _MEMO[key] = MemoryManager(spec).plan_cached(
                model,
                objective,
                scheme=scheme,
                prefetch=prefetch,
                interlayer=interlayer,
                interlayer_mode=interlayer_mode,
            )[0]
    return _MEMO[key]  # type: ignore[no-any-return]


def het_plan(
    model_name: str,
    glb_kb: int,
    objective: Objective = Objective.ACCESSES,
    data_width_bits: int = 8,
    allow_prefetch: bool = True,
    interlayer: bool = False,
    interlayer_mode: str = "opportunistic",
) -> ExecutionPlan:
    """Cached heterogeneous plan of a zoo model (see :func:`plan`)."""
    return plan(
        get_model(model_name),
        spec_for(glb_kb, data_width_bits),
        objective,
        prefetch=allow_prefetch,
        interlayer=interlayer,
        interlayer_mode=interlayer_mode,
    )


def hom_plan(
    model_name: str,
    glb_kb: int,
    objective: Objective = Objective.ACCESSES,
    data_width_bits: int = 8,
    allow_prefetch: bool = True,
) -> ExecutionPlan:
    """Cached best homogeneous plan of a zoo model (see :func:`plan`)."""
    spec = spec_for(glb_kb, data_width_bits)
    return plan(get_model(model_name), spec, objective, "hom", prefetch=allow_prefetch)


def named_only_plan(
    model_name: str, glb_kb: int, objective: Objective = Objective.ACCESSES
) -> ExecutionPlan:
    """Cached rescue-only ``Het`` plan of a zoo model (see :func:`plan`)."""
    return plan(get_model(model_name), spec_for(glb_kb), objective, "het(named-only)")


def baseline_results(
    model_name: str, glb_kb: int, data_width_bits: int = 8
) -> Mapping[str, SimulationResult]:
    """Cached SCALE-Sim baseline runs for the three partitions.

    Returns a **read-only** mapping: the underlying dict is shared with
    every later caller in the process (and with the on-disk cache), so
    mutation would corrupt subsequent artifacts.
    """
    model = get_model(model_name)
    manager = MemoryManager(spec_for(glb_kb, data_width_bits))
    key = cache.baseline_cache_key(model, manager.spec)
    if key not in _MEMO:
        _MEMO[key] = MappingProxyType(manager.baselines_cached_detail(model)[0])
    return _MEMO[key]  # type: ignore[no-any-return]


def clear_in_process_caches() -> None:
    """Drop the in-process memoization (the on-disk cache is untouched)."""
    _MEMO.clear()
    clear_evaluation_memo()


def all_model_names() -> tuple[str, ...]:
    """The six paper models, in Table 2 order."""
    return PAPER_MODEL_NAMES
