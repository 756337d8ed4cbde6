"""Plan verifier: clean plans pass, corrupted plans raise the right codes.

The corruption tests are the verifier's own test oracle: each one takes a
known-good plan, breaks exactly one invariant (via ``dataclasses.replace``
on the frozen plan objects, or ``object.__setattr__`` where a validator
would reject the corruption outright) and asserts that the matching
``V0xx`` diagnostic — and only meaningfully-related ones — appears.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.analyzer import make_assignment
from repro.arch import AcceleratorSpec, kib
from repro.manager import MemoryManager
from repro.nn import LayerKind, LayerSpec
from repro.nn.builder import ModelBuilder
from repro.policies import policy_by_name
from repro.sim.glb import Region, layout_plan
from repro.verify import (
    ALL_CODES,
    CODE_DESCRIPTIONS,
    CODE_TITLES,
    Diagnostic,
    DiagnosticCollector,
    PlanVerificationError,
    Severity,
    check_plan,
    describe,
    verify_candidate,
    verify_network,
    verify_plan,
)
from repro.verify.layout_checks import check_layout


# ----------------------------------------------------------------------
# Fixtures: a small model whose het+interlayer plan donates on edge 0→1
# ----------------------------------------------------------------------


def tiny_model():
    b = ModelBuilder("tiny", (32, 32, 16))
    b.conv("c1", f=3, n=32)
    b.pw("p1", n=64)
    b.conv("c2", f=3, n=32, s=2)
    return b.build()


@pytest.fixture(scope="module")
def spec() -> AcceleratorSpec:
    return AcceleratorSpec(glb_bytes=kib(64))


@pytest.fixture(scope="module")
def plan(spec):
    return MemoryManager(spec).plan(tiny_model(), interlayer=True)


@pytest.fixture(scope="module")
def p4_candidate():
    """A dense P4 plan (block_size > 1) for the multiplicity tests."""
    layer = LayerSpec(
        name="big",
        kind=LayerKind.CONV,
        in_h=28,
        in_w=28,
        in_c=64,
        f_h=3,
        f_w=3,
        num_filters=256,
        stride=1,
        padding=1,
    )
    candidate = policy_by_name("p4").plan(layer, budget_elems=20_000, prefetch=False)
    assert candidate is not None and candidate.block_size is not None
    return candidate


def corrupt_candidate(plan, index, candidate):
    """Rebuild ``plan`` with assignment ``index`` using ``candidate``."""
    assignment = plan.assignments[index]
    evaluation = replace(assignment.evaluation, plan=candidate)
    assignments = list(plan.assignments)
    assignments[index] = replace(assignment, evaluation=evaluation)
    return replace(plan, assignments=tuple(assignments))


def corrupt_assignment(plan, index, **changes):
    assignments = list(plan.assignments)
    assignments[index] = replace(assignments[index], **changes)
    return replace(plan, assignments=tuple(assignments))


# ----------------------------------------------------------------------
# Clean plans pass
# ----------------------------------------------------------------------


class TestCleanPlans:
    def test_tiny_plan_verifies(self, plan):
        report = verify_plan(plan)
        assert report.ok
        assert report.checks > 100
        assert report.codes == ()

    def test_plan_actually_donates(self, plan):
        # Precondition for the donation-corruption tests below.
        assert plan.assignments[0].donates and plan.assignments[1].receives

    def test_check_plan_returns_passing_report(self, plan):
        report = check_plan(plan)
        assert report.ok

    def test_candidate_verifies_against_spec_or_budget(self, plan, spec):
        candidate = plan.assignments[0].evaluation.plan
        assert verify_candidate(candidate, spec).ok
        assert verify_candidate(candidate, spec.glb_elems).ok

    def test_verify_network(self, spec):
        outcome = verify_network(tiny_model(), spec, interlayer=True)
        assert outcome.ok
        assert outcome.glb_bytes == spec.glb_bytes
        assert outcome.report.checks > 0

    def test_manager_verify_and_verify_on_plan(self, spec):
        manager = MemoryManager(spec)
        plan = manager.plan(tiny_model(), interlayer=True, verify=True)
        assert verify_plan(plan).ok

    def test_hom_scheme_verifies(self, spec):
        manager = MemoryManager(spec)
        assert verify_plan(manager.plan(tiny_model(), scheme="hom")).ok


# ----------------------------------------------------------------------
# Candidate-level corruptions (V003–V011)
# ----------------------------------------------------------------------


class TestCandidateCorruptions:
    def test_v003_budget_too_small(self, plan):
        candidate = plan.assignments[0].evaluation.plan
        report = verify_candidate(candidate, candidate.memory_elems - 1)
        assert "V003" in report.codes

    def test_v004_ifmap_traffic_mismatch(self, plan, spec):
        candidate = plan.assignments[0].evaluation.plan
        bad = replace(
            candidate,
            traffic=replace(candidate.traffic, ifmap_reads=candidate.traffic.ifmap_reads + 5),
        )
        report = verify_candidate(bad, spec)
        assert "V004" in report.codes

    def test_v005_filter_traffic_mismatch(self, plan, spec):
        candidate = plan.assignments[0].evaluation.plan
        bad = replace(
            candidate,
            traffic=replace(candidate.traffic, filter_reads=candidate.traffic.filter_reads + 3),
        )
        assert "V005" in verify_candidate(bad, spec).codes

    def test_v006_store_traffic_mismatch(self, plan, spec):
        candidate = plan.assignments[0].evaluation.plan
        bad = replace(
            candidate,
            traffic=replace(candidate.traffic, ofmap_writes=candidate.traffic.ofmap_writes + 7),
        )
        assert "V006" in verify_candidate(bad, spec).codes

    def test_v007_mac_loss(self, plan, spec):
        candidate = plan.assignments[0].evaluation.plan
        groups = list(candidate.schedule.groups)
        groups[0] = replace(groups[0], macs=groups[0].macs + 1)
        bad = replace(candidate, schedule=replace(candidate.schedule, groups=tuple(groups)))
        report = verify_candidate(bad, spec)
        assert "V007" in report.codes

    def test_v008_multiplicity_violated(self, p4_candidate, spec):
        # Add the same delta to both the schedule and the declared traffic:
        # V004 (traffic == schedule) still holds, only the paper-table
        # multiplicity (V008) is violated.
        candidate = p4_candidate
        schedule = replace(
            candidate.schedule, resident_ifmap=candidate.schedule.resident_ifmap + 11
        )
        traffic = replace(candidate.traffic, ifmap_reads=candidate.traffic.ifmap_reads + 11)
        bad = replace(candidate, schedule=schedule, traffic=traffic)
        report = verify_candidate(bad, spec)
        assert "V008" in report.codes
        assert "V004" not in report.codes

    def test_v008_missing_block_size(self, p4_candidate, spec):
        bad = replace(p4_candidate, block_size=None)
        assert "V008" in verify_candidate(bad, spec).codes

    def test_v010_negative_traffic(self, plan, spec):
        candidate = plan.assignments[0].evaluation.plan
        traffic = copy.copy(candidate.traffic)
        object.__setattr__(traffic, "ifmap_reads", -1)  # bypass the validator
        bad = replace(candidate, traffic=traffic)
        assert "V010" in verify_candidate(bad, spec).codes

    def test_v011_step_store_exceeds_tile(self, plan, spec):
        candidate = plan.assignments[0].evaluation.plan
        groups = list(candidate.schedule.groups)
        delta = candidate.tiles.ofmap + 1
        groups[0] = replace(groups[0], store=groups[0].store + delta)
        # Keep V006 satisfied so only the per-step bound fails.
        traffic = replace(
            candidate.traffic,
            ofmap_writes=candidate.traffic.ofmap_writes + delta * groups[0].count,
        )
        bad = replace(
            candidate,
            schedule=replace(candidate.schedule, groups=tuple(groups)),
            traffic=traffic,
        )
        report = verify_candidate(bad, spec)
        assert "V011" in report.codes
        assert "V006" not in report.codes


# ----------------------------------------------------------------------
# Plan-level corruptions (V001, V002, V009, V012, V013, V017)
# ----------------------------------------------------------------------


class TestPlanCorruptions:
    def test_v001_and_v003_on_shrunken_glb(self, plan):
        bad = replace(plan, spec=AcceleratorSpec(glb_bytes=kib(1)))
        report = verify_plan(bad, check_layouts=False)
        assert "V001" in report.codes and "V003" in report.codes

    def test_v002_memory_metric_lie(self, plan):
        bad = corrupt_assignment(
            plan, 0, memory_bytes=plan.assignments[0].memory_bytes + 4
        )
        report = verify_plan(bad)
        assert report.codes == ("V002",)

    def test_v009_read_bytes_lie(self, plan):
        bad = corrupt_assignment(plan, 0, read_bytes=plan.assignments[0].read_bytes + 1)
        report = verify_plan(bad)
        assert report.codes == ("V009",)

    def test_v009_latency_lie(self, plan):
        bad = corrupt_assignment(
            plan, 0, latency_cycles=plan.assignments[0].latency_cycles * 1.5 + 1.0
        )
        assert "V009" in verify_plan(bad).codes

    def test_v012_receive_without_donor(self, plan):
        bad = corrupt_assignment(plan, 2, receives=True)
        assert "V012" in verify_plan(bad, check_layouts=False).codes

    def test_v012_donor_without_receiver(self, plan):
        bad = corrupt_assignment(plan, 1, receives=False)
        assert "V012" in verify_plan(bad, check_layouts=False).codes

    def test_v013_donate_on_last_layer(self, plan):
        last = len(plan.assignments) - 1
        bad = corrupt_assignment(plan, last, donates=True)
        assert "V013" in verify_plan(bad, check_layouts=False).codes

    def test_v017_truncated_plan(self, plan):
        bad = copy.copy(plan)
        object.__setattr__(bad, "assignments", plan.assignments[:-1])
        assert "V017" in verify_plan(bad, check_layouts=False).codes

    def test_v017_swapped_assignments(self, plan):
        assignments = list(plan.assignments)
        assignments[0], assignments[1] = assignments[1], assignments[0]
        bad = replace(plan, assignments=tuple(assignments))
        assert "V017" in verify_plan(bad, check_layouts=False).codes

    def test_v017_candidate_of_another_shape(self, spec):
        # A self-consistent assignment that binds layer 0 to layer 1's
        # candidate: only the shape check can tell.
        plan = MemoryManager(spec).plan(tiny_model())
        first, second = plan.assignments[:2]
        assert first.layer.shape != second.layer.shape
        swapped = make_assignment(0, first.layer, second.evaluation, spec)
        bad = replace(plan, assignments=(swapped, *plan.assignments[1:]))
        assert verify_plan(bad, check_layouts=False).codes == ("V017",)

    def test_check_plan_raises_with_report(self, plan):
        bad = corrupt_assignment(
            plan, 0, memory_bytes=plan.assignments[0].memory_bytes + 4
        )
        with pytest.raises(PlanVerificationError) as excinfo:
            check_plan(bad)
        assert "V002" in excinfo.value.report.codes
        assert "V002" in str(excinfo.value)

    def test_verify_on_plan_mode_raises(self, plan, spec):
        # The manager's verify=True path goes through the same raising
        # check; a healthy plan must pass it (exercised in TestCleanPlans),
        # and a corrupted spec must not slip through verify_plan.
        bad = replace(plan, spec=AcceleratorSpec(glb_bytes=kib(1)))
        with pytest.raises(PlanVerificationError):
            check_plan(bad)


# ----------------------------------------------------------------------
# Layout-level corruptions (V014, V015, V016)
# ----------------------------------------------------------------------


class TestLayoutCorruptions:
    def test_v014_unrealizable_layout(self, plan):
        bad = replace(plan, spec=AcceleratorSpec(glb_bytes=kib(1)))
        assert "V014" in verify_plan(bad).codes

    def test_v015_region_out_of_bounds(self, plan):
        layouts = list(layout_plan(plan))
        regions = list(layouts[0].regions)
        regions[0] = replace(regions[0], offset=plan.spec.glb_bytes)
        layouts[0] = replace(layouts[0], regions=tuple(regions))
        out = DiagnosticCollector(subject="corrupted layout")
        check_layout(out, plan, layouts=layouts)
        assert "V015" in out.report().codes

    def test_v015_region_overlap(self, plan):
        layouts = list(layout_plan(plan))
        regions = list(layouts[0].regions)
        assert len(regions) >= 2
        regions[1] = replace(regions[1], offset=regions[0].offset)
        layouts[0] = replace(layouts[0], regions=tuple(regions))
        out = DiagnosticCollector(subject="corrupted layout")
        check_layout(out, plan, layouts=layouts)
        assert "V015" in out.report().codes

    def test_v016_donated_region_moved(self, plan):
        layouts = list(layout_plan(plan))
        receiver = layouts[1]
        donated = receiver.region("ifmap(donated)")
        regions = tuple(
            replace(r, offset=r.offset + plan.spec.bytes_per_elem)
            if r.name == "ifmap(donated)"
            else r
            for r in receiver.regions
        )
        layouts[1] = replace(receiver, regions=regions)
        out = DiagnosticCollector(subject="corrupted layout")
        check_layout(out, plan, layouts=layouts)
        report = out.report()
        assert "V016" in report.codes
        assert donated.offset == layouts[0].donated_offset

    def test_v016_donated_region_missing(self, plan):
        layouts = list(layout_plan(plan))
        receiver = layouts[1]
        regions = tuple(
            replace(r, name="ifmap") if r.name == "ifmap(donated)" else r
            for r in receiver.regions
        )
        layouts[1] = replace(receiver, regions=regions)
        out = DiagnosticCollector(subject="corrupted layout")
        check_layout(out, plan, layouts=layouts)
        assert "V016" in out.report().codes

    def test_clean_layout_recheck_passes(self, plan):
        out = DiagnosticCollector(subject="clean layout")
        check_layout(out, plan, layouts=layout_plan(plan))
        assert out.report().ok


# ----------------------------------------------------------------------
# Diagnostics machinery and the code catalog
# ----------------------------------------------------------------------


class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="V999", message="nope")

    def test_render_mentions_code_layer_and_values(self):
        diag = Diagnostic(
            code="V001",
            message="too big",
            layer_index=3,
            layer_name="conv4",
            policy="p2+p",
            expected=10,
            actual=20,
        )
        text = diag.render()
        assert "V001" in text and "conv4" in text and "p2+p" in text
        assert "expected 10" in text and "actual 20" in text
        assert diag.title == "capacity exceeded"

    def test_collector_counts_checks(self):
        out = DiagnosticCollector(subject="s")
        assert out.check(True, "V001", "fine")
        assert not out.check(False, "V002", "broken")
        report = out.report()
        assert report.checks == 2
        assert not report.ok
        assert report.by_code("V002")[0].message == "broken"
        assert len(report) == 1 and list(report)[0].code == "V002"

    def test_warnings_do_not_fail(self):
        out = DiagnosticCollector(subject="s")
        out.check(False, "V010", "suspicious", severity=Severity.WARNING)
        report = out.report()
        assert report.ok
        assert report.warnings and not report.errors
        report.raise_if_failed()  # must not raise

    def test_report_render_headline(self):
        out = DiagnosticCollector(subject="net/het @ 64 kB")
        out.check(True, "V001", "fine")
        text = out.report().render()
        assert text.startswith("net/het @ 64 kB: OK (1 checks")

    def test_catalog_is_consistent(self):
        assert set(CODE_TITLES) == set(CODE_DESCRIPTIONS)
        assert ALL_CODES == tuple(sorted(CODE_TITLES))
        assert all(code.startswith("V") and len(code) == 4 for code in ALL_CODES)
        assert describe("V001")
        with pytest.raises(KeyError):
            describe("V999")

    def test_docs_mirror_the_catalog(self):
        from pathlib import Path

        doc = (Path(__file__).parent.parent / "docs" / "verification.md").read_text()
        for code, title in CODE_TITLES.items():
            assert f"| {code} | {title} |" in doc, f"{code} missing from docs"
        # No stale codes either: every Vxxx token in the doc is cataloged.
        import re

        for code in set(re.findall(r"\bV\d{3}\b", doc)):
            assert code in CODE_TITLES, f"docs mention unknown code {code}"

    def test_every_code_is_triggerable_or_documented(self):
        # The corruption tests above cover every catalog code; guard the
        # list so a new code cannot be added without a matching test.
        covered = {
            "V001", "V002", "V003", "V004", "V005", "V006", "V007", "V008",
            "V009", "V010", "V011", "V012", "V013", "V014", "V015", "V016",
            "V017", "V018", "V019",
        }
        assert covered == set(ALL_CODES)


# ----------------------------------------------------------------------
# DRAM-level checks (V018/V019)
# ----------------------------------------------------------------------


class TestDramChecks:
    """V018/V019 run only for DRAM-backed plans and catch backend lies.

    The backend cannot be corrupted through the plan object (the verifier
    re-simulates from the schedule), so these tests stub the simulation
    the checker calls and hand it inconsistent statistics.
    """

    @pytest.fixture(scope="class")
    def dram_plan(self, spec):
        from repro.dram import DEFAULT_DDR4_SPEC

        manager = MemoryManager(spec.with_dram(DEFAULT_DDR4_SPEC))
        return manager.plan(tiny_model(), interlayer=True)

    def test_dram_backed_plan_verifies(self, dram_plan):
        report = verify_plan(dram_plan)
        assert report.ok

    def test_flat_plan_skips_dram_checks(self, plan, dram_plan):
        # Same model and GLB; the DRAM-backed plan runs strictly more checks.
        assert verify_plan(dram_plan).checks > verify_plan(plan).checks

    def test_v018_fires_on_too_fast_timing(self, dram_plan, monkeypatch):
        import repro.verify.dram_checks as dram_checks

        real = dram_checks.simulate_schedules

        def too_fast(items, b, dram, mapping=None):
            return [
                replace(stats, cycles=stats.ideal_cycles * 0.5)
                for stats in real(items, b, dram, mapping)
            ]

        monkeypatch.setattr(dram_checks, "simulate_schedules", too_fast)
        report = verify_plan(dram_plan)
        assert "V018" in report.codes

    def test_v019_fires_on_inconsistent_stats(self, dram_plan, monkeypatch):
        import repro.verify.dram_checks as dram_checks

        real = dram_checks.simulate_schedules

        def extra_activation(items, b, dram, mapping=None):
            return [
                replace(stats, activations=stats.activations + 1)
                for stats in real(items, b, dram, mapping)
            ]

        monkeypatch.setattr(dram_checks, "simulate_schedules", extra_activation)
        report = verify_plan(dram_plan)
        assert "V019" in report.codes
        assert "V018" not in report.codes


# ----------------------------------------------------------------------
# CLI subcommand
# ----------------------------------------------------------------------


class TestVerifyCli:
    def test_list_codes(self, capsys):
        from repro.cli import main

        assert main(["verify", "--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in ALL_CODES:
            assert code in out

    def test_verify_one_model(self, capsys):
        from repro.cli import main

        assert main(["verify", "ResNet18", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        assert "ResNet18" in out and "ok" in out.lower()

    def test_verify_requires_model_or_all(self, capsys):
        from repro.cli import main

        assert main(["verify"]) == 2
        assert capsys.readouterr().err == "error: give a model name/path or --all\n"
