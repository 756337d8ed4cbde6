"""Property-based tests for the analyzer layer (planning invariants).

Complements ``test_properties.py`` (policy/latency invariants) with
randomized *models*: small random chains planned end to end, checking
the planner-level guarantees hold off the beaten path of the zoo.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import (
    Objective,
    make_assignment,
    plan_chain_with_interlayer,
    plan_heterogeneous,
    plan_weighted,
    required_memory_elems,
)
from repro.arch import AcceleratorSpec, kib
from repro.estimators import evaluate_layers
from repro.nn import LayerKind, LayerSpec, make_model
from repro.nn.zoo import get_model
from repro.sim import crosscheck_plan
from repro.sim.glb import layout_plan


@st.composite
def chain_models(draw, max_layers: int = 5):
    """Random sequential CNNs (2 to ``max_layers`` conv/pw layers,
    consistent shapes)."""
    num_layers = draw(st.integers(2, max_layers))
    hw = draw(st.sampled_from([16, 24, 32]))
    channels = draw(st.integers(2, 16))
    layers = []
    pairs = []
    for i in range(num_layers):
        pointwise = draw(st.booleans())
        out_channels = draw(st.integers(2, 24))
        if pointwise:
            f, pad = 1, 0
        else:
            f, pad = 3, 1
        stride = draw(st.sampled_from([1, 2])) if hw >= 8 else 1
        layer = LayerSpec(
            name=f"l{i}",
            kind=LayerKind.POINTWISE if pointwise else LayerKind.CONV,
            in_h=hw,
            in_w=hw,
            in_c=channels,
            f_h=f,
            f_w=f,
            num_filters=out_channels,
            stride=stride,
            padding=pad,
        )
        layers.append(layer)
        if i < num_layers - 1:
            pairs.append(i)
        hw, channels = layer.out_h, layer.out_c
    return make_model("random-chain", layers, pairs)


glb_sizes = st.sampled_from([8 * 1024, 32 * 1024, 128 * 1024])


@settings(max_examples=40, deadline=None)
@given(model=chain_models(), glb=glb_sizes)
def test_random_chains_plan_and_crosscheck(model, glb):
    spec = AcceleratorSpec(glb_bytes=glb)
    plan = plan_heterogeneous(model, spec)
    assert plan.max_memory_bytes <= glb
    check, _ = crosscheck_plan(plan)
    assert check.traffic_matches
    assert check.latency_rel_error < 1e-5


@settings(max_examples=40, deadline=None)
@given(model=chain_models(), glb=glb_sizes)
def test_interlayer_never_hurts_random_chains(model, glb):
    spec = AcceleratorSpec(glb_bytes=glb)
    base = plan_heterogeneous(model, spec)
    for mode in ("opportunistic", "joint"):
        il = plan_heterogeneous(model, spec, interlayer=True, interlayer_mode=mode)
        assert il.total_accesses_bytes <= base.total_accesses_bytes
        assert il.max_memory_bytes <= glb


@settings(max_examples=30, deadline=None)
@given(model=chain_models(), glb=glb_sizes)
def test_interlayer_plans_lay_out(model, glb):
    spec = AcceleratorSpec(glb_bytes=glb)
    plan = plan_heterogeneous(model, spec, interlayer=True, interlayer_mode="joint")
    layouts = layout_plan(plan)  # must not raise AllocationError
    for layout in layouts:
        for region in layout.regions:
            assert 0 <= region.offset and region.end <= glb


@settings(max_examples=30, deadline=None)
@given(model=chain_models(), glb=glb_sizes)
def test_objective_ordering_random_chains(model, glb):
    spec = AcceleratorSpec(glb_bytes=glb)
    het_a = plan_heterogeneous(model, spec, Objective.ACCESSES)
    het_l = plan_heterogeneous(model, spec, Objective.LATENCY)
    assert het_a.total_accesses_bytes <= het_l.total_accesses_bytes
    assert het_l.total_latency_cycles <= het_a.total_latency_cycles


@settings(max_examples=25, deadline=None)
@given(
    model=chain_models(),
    glb=glb_sizes,
    alpha=st.floats(0.0, 1.0, allow_nan=False),
)
def test_weighted_plans_bounded_by_endpoints(model, glb, alpha):
    spec = AcceleratorSpec(glb_bytes=glb)
    het_a = plan_heterogeneous(model, spec, Objective.ACCESSES)
    het_l = plan_heterogeneous(model, spec, Objective.LATENCY)
    weighted = plan_weighted(model, spec, alpha)
    assert weighted.total_accesses_bytes >= het_a.total_accesses_bytes
    assert weighted.total_latency_cycles >= het_l.total_latency_cycles - 1e-6


def exhaustive_chain_cost(model, spec, objective, candidates) -> tuple[float, float]:
    """The joint inter-layer optimum by enumeration, independent of the DP.

    Once the donation vector along the chain is fixed, each layer's best
    candidate no longer depends on the others: so try every vector over
    the edges that can donate and take each layer's lexicographically
    cheapest fitting candidate under it (``make_assignment`` metrics).
    O(2^e · n · K).  Raises ``ValueError`` when no vector is feasible.
    """
    n = len(model.layers)
    edges = [i for i in range(n - 1) if model.feeds_next(i)]
    cheapest: dict[tuple[int, bool, bool], tuple[float, float] | None] = {}

    def layer_cost(i: int, receives: bool, donates: bool) -> tuple[float, float] | None:
        if (i, receives, donates) not in cheapest:
            costs = [
                objective.key(assignment.accesses_bytes, assignment.latency_cycles)
                for evaluation in candidates[i]
                if required_memory_elems(evaluation, receives, donates) <= spec.glb_elems
                and not (donates and evaluation.plan.traffic.ofmap_spills)
                for assignment in [
                    make_assignment(i, model.layers[i], evaluation, spec, receives, donates)
                ]
            ]
            cheapest[(i, receives, donates)] = min(costs, default=None)
        return cheapest[(i, receives, donates)]

    best: tuple[float, float] | None = None
    for bits in itertools.product((False, True), repeat=len(edges)):
        donating = {i for i, bit in zip(edges, bits) if bit}
        total = (0.0, 0.0)
        for i in range(n):
            cost = layer_cost(i, i - 1 in donating, i in donating)
            if cost is None:
                break
            total = (total[0] + cost[0], total[1] + cost[1])
        else:
            if best is None or total < best:
                best = total
    if best is None:
        raise ValueError("no feasible inter-layer plan exists")
    return best


def _check_joint_dp_is_optimal(model, spec, objective):
    candidates = [entry[0] for entry in evaluate_layers(model.layers, spec)]
    try:
        expected = exhaustive_chain_cost(model, spec, objective, candidates)
    except ValueError:
        with pytest.raises(ValueError):
            plan_chain_with_interlayer(model, spec, objective, candidates)
        return
    assignments = plan_chain_with_interlayer(model, spec, objective, candidates)
    assert [a.index for a in assignments] == list(range(len(model.layers)))
    for i, assignment in enumerate(assignments):
        receives = i > 0 and assignments[i - 1].donates
        assert assignment.receives == receives
        assert not assignment.donates or model.feeds_next(i)
        assert required_memory_elems(
            assignment.evaluation, assignment.receives, assignment.donates
        ) <= spec.glb_elems
    total = (0.0, 0.0)
    for assignment in assignments:
        cost = objective.key(assignment.accesses_bytes, assignment.latency_cycles)
        total = (total[0] + cost[0], total[1] + cost[1])
    assert total == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    model=chain_models(max_layers=10),
    glb=st.sampled_from([16, 8 * 1024, 32 * 1024, 128 * 1024]),
    objective=st.sampled_from(Objective),
)
def test_joint_interlayer_dp_matches_exhaustive_oracle(model, glb, objective):
    """A 16-byte GLB leaves some layer with no candidate: both must raise."""
    _check_joint_dp_is_optimal(model, AcceleratorSpec(glb_bytes=glb), objective)


ZOO = ("EfficientNetB0", "GoogLeNet", "MnasNet", "MobileNet", "MobileNetV2", "ResNet18")


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ZOO),
    length=st.integers(2, 10),
    glb_kb=st.sampled_from([64, 128, 256, 512, 1024]),
    objective=st.sampled_from(Objective),
)
def test_joint_interlayer_dp_matches_exhaustive_oracle_on_zoo_prefixes(
    name, length, glb_kb, objective
):
    full = get_model(name)
    pairs = [i for i in range(length - 1) if full.feeds_next(i)]
    model = make_model(f"{name}[:{length}]", full.layers[:length], pairs)
    _check_joint_dp_is_optimal(model, AcceleratorSpec(glb_bytes=kib(glb_kb)), objective)
