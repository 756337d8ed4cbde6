"""Runtime harness at the corners of the declared spec space.

Every layer, budget and data width below derives from a constant of
:mod:`repro.arch.bounds`, so raising a bound moves the corners with it.
Each case is planned by every scheme with NumPy floating-point errors
and ``RuntimeWarning`` raised, and checked against exact oracles:
:func:`~repro.verify.verify_plan` reports nothing; every ``int`` of the
plan and its export is a Python ``int`` and every declared ``int64``
array is one; the tile search picks the winner of
``tests/tiled_reference.py``; the energy model's byte counts are exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from contextlib import contextmanager
from typing import Iterator, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import (
    Objective,
    best_homogeneous,
    plan_heterogeneous,
    plan_named_only,
    plan_to_dict,
)
from repro.arch import AcceleratorSpec
from repro.arch import bounds as B
from repro.dram import DEFAULT_DDR4_SPEC
from repro.dram.planstats import simulate_plan_dram
from repro.dram.backend import MAX_SPLIT_PIECES
from repro.dram.trace import dram_effective_bandwidths, lower_schedules
from repro.energy.model import _sram_bytes_for_macs
from repro.nn import LayerKind, LayerSpec
from repro.nn.model import Model
from repro.policies import LayerSchedule, StepGroup, TiledFallback
from repro.policies.tiled import tile_grid
from repro.verify import verify_plan

from .strategies import layers
from .tiled_reference import reference_fits_nothing, reference_tiled_plan


def _saturated(layer: LayerSpec, *fields: str) -> LayerSpec:
    """``layer`` with each of ``fields`` in turn raised to the largest
    channel count the validators still accept."""
    for field in fields:
        lo, hi = 1, B.MAX_CHANNELS
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                dataclasses.replace(layer, **{field: mid})
                lo = mid
            except ValueError:
                hi = mid - 1
        layer = dataclasses.replace(layer, **{field: lo})
    return layer


_DIM, _K = B.MAX_FEATURE_DIM, B.MAX_KERNEL_DIM

#: One layer per corner: MACs saturated (odd output extent), the largest
#: tensor saturated, every spatial cap with an odd stride, the channel
#: caps, the stride cap, and the smallest layer there is.
CORNER_LAYERS = {
    "conv-macs": _saturated(
        LayerSpec("conv", LayerKind.CONV, _DIM, _DIM, 1, _K, _K, 1, 1, B.MAX_PADDING - 1),
        "in_c", "num_filters",
    ),
    "pw-tensor": _saturated(
        LayerSpec("pw", LayerKind.POINTWISE, _DIM, _DIM, 1, 1, 1, 1), "in_c", "num_filters"
    ),
    "dw-odd-stride": _saturated(
        LayerSpec("dw", LayerKind.DEPTHWISE, _DIM, _DIM, 1, _K, _K, 1, B.MAX_STRIDE - 1,
                  B.MAX_PADDING),
        "in_c",
    ),
    "fc-channels": LayerSpec("fc", LayerKind.FC, 1, 1, B.MAX_CHANNELS, 1, 1, B.MAX_CHANNELS),
    "conv-stride": _saturated(
        LayerSpec("convs", LayerKind.CONV, _DIM, _DIM, 1, _K, _K, B.MAX_CHANNELS,
                  B.MAX_STRIDE, B.MAX_PADDING),
        "in_c",
    ),
    "unit": LayerSpec("unit", LayerKind.CONV, 1, 1, 1, 1, 1, 1),
}

#: Data widths from the narrowest element to ``MAX_DATA_WIDTH_BITS``.
WIDTHS = (8, B.MAX_DATA_WIDTH_BITS)


#: The smallest GLB the tile-search reference runs at: it builds every
#: feasible candidate's schedule, which at small budgets means millions
#: of step groups per corner layer.
REFERENCE_GLB = B.MAX_GLB_BYTES >> 6


def _budgets(bits: int) -> tuple[int, ...]:
    """GLB sizes from one element to ``MAX_GLB_BYTES``."""
    return (bits // 8, B.MAX_GLB_BYTES >> 10, REFERENCE_GLB, B.MAX_GLB_BYTES)


class Case(NamedTuple):
    layer: str
    bits: int
    glb_bytes: int


CASES = [
    Case(name, bits, glb)
    for name in CORNER_LAYERS
    for bits in WIDTHS
    for glb in _budgets(bits)
]


@contextmanager
def strict_numpy() -> Iterator[None]:
    """Floating-point errors and ``RuntimeWarning`` raise, never warn."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def _check_types(value: object, seen: set[int], path: str) -> None:
    """Every dataclass field declared ``int`` and every export value filed
    under a ``*_bytes`` key holds a Python ``int``, every array declared
    ``NDArray[np.int64]`` is ``int64``, and no NumPy scalar appears."""
    if id(value) in seen:
        return
    seen.add(id(value))
    assert not isinstance(value, np.generic), f"{path}: NumPy scalar {value!r}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            assert field.type != "int" or type(item) is int, f"{path}.{field.name}: {item!r}"
            _check_types(item, seen, f"{path}.{field.name}")
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        for name, item in zip(value._fields, value):
            if "np.int64" in str(type(value).__annotations__.get(name)):
                assert item.dtype == np.int64, f"{path}.{name}: {item.dtype}"
    elif isinstance(value, (tuple, list)):
        for item in value:
            _check_types(item, seen, path)
    elif isinstance(value, dict):
        for key, item in value.items():
            if path.endswith("_bytes") or key.endswith("_bytes") and not isinstance(item, dict):
                assert type(item) is int, f"{path}[{key!r}]: {item!r}"
            _check_types(item, seen, key)


def _check_plan(plan) -> None:
    report = verify_plan(plan)
    assert len(report) == 0, report.render()
    _check_types(plan.assignments, set(), "plan")
    export = plan_to_dict(plan)
    json.dumps(export)  # a NumPy integer is not JSON-serializable
    _check_types(export, set(), "export")
    macs = plan.model.total_macs
    dram_bytes = plan.total_accesses_bytes
    b = plan.spec.bytes_per_elem
    assert _sram_bytes_for_macs(macs, dram_bytes, b) == 3 * macs * b + dram_bytes
    if plan.spec.dram is not None:
        items = [(a.evaluation.plan.schedule, a.layer) for a in plan.assignments]
        _check_types(lower_schedules(items, b, plan.spec.dram)[0], set(), "requests")
        total = simulate_plan_dram(plan)[0].total
        _check_types(total, set(), "dram")
        assert total.total_bytes == dram_bytes


def _plan_all(model: Model, spec: AcceleratorSpec) -> list:
    """The Het, Hom and named-only plans under both objectives; [] when
    nothing fits.

    A DRAM-backed spec may also refuse a layer whose lowering would need
    more pieces than ``MAX_SPLIT_PIECES``.
    """
    refusals = ("feasible", "pieces") if spec.dram else ("feasible",)
    plans = []
    for objective in Objective:
        for planner in (plan_heterogeneous, best_homogeneous, plan_named_only):
            try:
                plans.append(planner(model, spec, objective))
            except ValueError as err:
                assert any(word in str(err) for word in refusals), err
    return plans


def _ids(case: Case) -> str:
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_corner_plans_verify_and_stay_exact(case: Case) -> None:
    layer = CORNER_LAYERS[case.layer]
    spec = AcceleratorSpec(glb_bytes=case.glb_bytes, data_width_bits=case.bits)
    with strict_numpy():
        plans = _plan_all(Model("corner", (layer,)), spec)
        for plan in plans:
            _check_plan(plan)
        for width_wise in (False, True):
            _check_types(tile_grid(layer.shape, width_wise), set(), "grid")
    if not plans:
        assert reference_fits_nothing(layer, spec.glb_elems, False)


@pytest.mark.parametrize(
    "case",
    # the most elements a GLB holds, and the fewest the reference runs at
    [c for c in CASES if (c.bits, c.glb_bytes) in
     ((8, B.MAX_GLB_BYTES), (B.MAX_DATA_WIDTH_BITS, REFERENCE_GLB))],
    ids=_ids,
)
def test_corner_tile_search_matches_reference(case: Case) -> None:
    layer = CORNER_LAYERS[case.layer]
    budget = case.glb_bytes // (case.bits // 8)
    with strict_numpy():
        for prefetch in (False, True):
            assert TiledFallback().plan(layer, budget, prefetch) == reference_tiled_plan(
                layer, budget, prefetch
            )


DDR4_CORNER = AcceleratorSpec(
    glb_bytes=B.MAX_GLB_BYTES, data_width_bits=B.MAX_DATA_WIDTH_BITS, dram=DEFAULT_DDR4_SPEC
)


@pytest.mark.parametrize("name", CORNER_LAYERS)
def test_ddr4_corners_plan_or_refuse_cleanly(name: str) -> None:
    with strict_numpy():
        for plan in _plan_all(Model("corner", (CORNER_LAYERS[name],)), DDR4_CORNER):
            _check_plan(plan)


def test_dram_lowering_refuses_a_corner_it_cannot_hold() -> None:
    """Billions of row pieces end in a ValueError, not a giant allocation."""
    with pytest.raises(ValueError, match=rf"needs \d+ pieces, over {MAX_SPLIT_PIECES}"):
        plan_heterogeneous(Model("corner", (CORNER_LAYERS["conv-macs"],)), DDR4_CORNER)


def _consumer(producer: LayerSpec) -> LayerSpec:
    """The largest 1×1 layer reading ``producer``'s ofmap."""
    kind = LayerKind.FC if producer.out_h == producer.out_w == 1 else LayerKind.POINTWISE
    head = LayerSpec("next", kind, producer.out_h, producer.out_w, producer.out_c, 1, 1, 1)
    return _saturated(head, "num_filters")


@pytest.mark.parametrize("head", ["conv-stride", "fc-channels", "unit"])
@pytest.mark.parametrize("mode", ["opportunistic", "joint"])
def test_corner_chains_plan_with_interlayer_reuse(head: str, mode: str) -> None:
    producer = CORNER_LAYERS[head]
    model = Model("chain", (producer, _consumer(producer)))
    donated = 0
    with strict_numpy():
        for bits in WIDTHS:
            for glb in _budgets(bits):
                spec = AcceleratorSpec(glb_bytes=glb, data_width_bits=bits)
                for objective in Objective:
                    try:
                        plan = plan_heterogeneous(
                            model, spec, objective, interlayer=True, interlayer_mode=mode
                        )
                    except ValueError as err:
                        assert "feasible" in str(err), err
                        continue
                    _check_plan(plan)
                    donated += plan.interlayer_pairs_applied
    assert donated or producer.ofmap_elems > B.MAX_GLB_BYTES  # fits no GLB


@settings(max_examples=40, deadline=None)
@given(
    layer=layers(
        max_hw=B.MAX_FEATURE_DIM,
        # The most channels a layer at the spatial and kernel caps can
        # have on both sides within MAX_LAYER_MACS.
        max_c=math.isqrt(B.MAX_LAYER_MACS // (B.MAX_FEATURE_DIM * B.MAX_KERNEL_DIM) ** 2),
        max_fc=B.MAX_CHANNELS,
        kernels=tuple(range(1, B.MAX_KERNEL_DIM + 1)),
        strides=tuple(range(1, B.MAX_STRIDE + 1)),
    ),
    bits=st.sampled_from(range(8, B.MAX_DATA_WIDTH_BITS + 1, 8)),
    glb_bytes=st.integers(B.MAX_GLB_BYTES >> 10, B.MAX_GLB_BYTES),
)
def test_layers_between_the_corners_plan_exactly(layer, bits, glb_bytes) -> None:
    spec = AcceleratorSpec(glb_bytes=glb_bytes, data_width_bits=bits)
    with strict_numpy():
        for plan in _plan_all(Model("drawn", (layer,)), spec):
            _check_plan(plan)


def test_schedule_moving_no_data_gets_the_flat_bandwidth() -> None:
    """A zero-traffic stream takes no DRAM cycles; its bandwidth is the flat one."""
    layer = CORNER_LAYERS["conv-macs"]
    idle = LayerSchedule(groups=(StepGroup(count=1, macs=layer.macs),))
    flat = B.MAX_DRAM_BANDWIDTH_ELEMS_PER_CYCLE
    with strict_numpy():
        assert dram_effective_bandwidths(
            [(idle, layer)], DEFAULT_DDR4_SPEC, B.MAX_DATA_WIDTH_BITS // 8, flat
        ) == [flat]


def test_deepest_model_sums_stay_exact() -> None:
    """``MAX_MODEL_LAYERS`` MAC-saturated layers: byte totals past 2**63."""
    layer = CORNER_LAYERS["conv-macs"]
    model = Model(
        "deep",
        tuple(dataclasses.replace(layer, name=f"l{i}") for i in range(B.MAX_MODEL_LAYERS)),
    )
    spec = AcceleratorSpec(glb_bytes=B.MAX_GLB_BYTES, data_width_bits=B.MAX_DATA_WIDTH_BITS)
    with strict_numpy():
        plan = plan_heterogeneous(model, spec)
        _check_plan(plan)
    assert 3 * model.total_macs * spec.bytes_per_elem > 2**63


def test_models_hold_at_most_max_model_layers() -> None:
    unit = CORNER_LAYERS["unit"]
    chain = [dataclasses.replace(unit, name=f"l{i}") for i in range(B.MAX_MODEL_LAYERS + 1)]
    assert len(Model("widest", tuple(chain[:-1]))) == B.MAX_MODEL_LAYERS
    with pytest.raises(ValueError, match=f"MAX_MODEL_LAYERS={B.MAX_MODEL_LAYERS}"):
        Model("too-many", tuple(chain))
