"""Property-based tests: the analyzer never emits an unverifiable plan.

Hypothesis generates random-but-valid layers and small random models; every
candidate a policy produces, and every execution plan the planner emits,
must pass the full static invariant catalog with zero diagnostics.  This
is the strongest form of the tentpole claim: the verifier and the
analyzer agree not just on the paper networks but on arbitrary inputs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import Objective, plan_heterogeneous
from repro.arch import AcceleratorSpec, kib
from repro.estimators.evaluate import evaluate_layer
from repro.nn.builder import ModelBuilder
from repro.policies import FALLBACK_POLICY, NAMED_POLICIES
from repro.verify import verify_candidate, verify_plan

from .strategies import layers


@st.composite
def small_models(draw):
    """Short straight-line CNNs with chainable (donatable) edges."""
    b = ModelBuilder("prop", (draw(st.integers(12, 40)), draw(st.integers(12, 40)), draw(st.integers(3, 32))))
    for _ in range(draw(st.integers(2, 5))):
        op = draw(st.sampled_from(["conv", "pw", "dw"]))
        if op == "conv":
            b.conv(f=draw(st.sampled_from([1, 3])), n=draw(st.integers(4, 48)),
                   s=draw(st.sampled_from([1, 2])))
        elif op == "pw":
            b.pw(n=draw(st.integers(4, 64)))
        else:
            b.dw(s=draw(st.sampled_from([1, 2])))
    return b.build()


budgets = st.integers(2_000, 1 << 22)
ALL_POLICIES = (*NAMED_POLICIES, FALLBACK_POLICY)


@settings(max_examples=120, deadline=None)
@given(layer=layers(), budget=budgets, prefetch=st.booleans())
def test_every_emitted_candidate_verifies(layer, budget, prefetch) -> None:
    for policy in ALL_POLICIES:
        candidate = policy.plan(layer, budget, prefetch)
        if candidate is None:
            continue
        report = verify_candidate(candidate, budget)
        assert report.ok, report.render()


@settings(max_examples=60, deadline=None)
@given(layer=layers(), glb_kb=st.sampled_from([64, 128, 256, 512, 1024]))
def test_every_evaluation_verifies_under_spec(layer, glb_kb) -> None:
    spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
    for evaluation in evaluate_layer(layer, spec):
        report = verify_candidate(evaluation.plan, spec)
        assert report.ok, report.render()


@settings(max_examples=40, deadline=None)
@given(
    model=small_models(),
    glb_kb=st.sampled_from([64, 256, 1024]),
    interlayer=st.booleans(),
    objective=st.sampled_from([Objective.ACCESSES, Objective.LATENCY]),
)
def test_every_heterogeneous_plan_verifies(model, glb_kb, interlayer, objective) -> None:
    spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
    plan = plan_heterogeneous(model, spec, objective, interlayer=interlayer)
    report = verify_plan(plan)
    assert report.ok, report.render()
