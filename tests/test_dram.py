"""Banked DRAM model: spec, mappings, backend, trace and end-to-end wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import AcceleratorSpec, kib
from repro.dram import (
    DEFAULT_DDR4_SPEC,
    KNOWN_MAPPINGS,
    MAPPING_NAMES,
    MAPPING_POLICIES,
    DramAccess,
    DramSpec,
    DramStats,
    Region,
    combine_stats,
    dram_effective_bandwidth,
    get_mapping,
    layer_regions,
    partition_banks,
    schedule_requests,
    simulate_accesses,
    simulate_plan_dram,
    simulate_schedule,
)
from repro.estimators import schedule_latency
from repro.manager import MemoryManager
from repro.nn.zoo import get_model
from repro.policies import NAMED_POLICIES

from .dram_reference import schedule_accesses
from .test_dram_differential import merged_chunks

SPEC = AcceleratorSpec(glb_bytes=kib(256))


@pytest.fixture(scope="module")
def layer():
    return get_model("ResNet18").layers[0]


@pytest.fixture(scope="module")
def schedule(layer):
    for policy in NAMED_POLICIES:
        candidate = policy.plan(layer, SPEC.glb_elems, True)
        if candidate is not None:
            return candidate.schedule
    raise AssertionError("no policy fits the reference layer")


# ----------------------------------------------------------------------
# DramSpec
# ----------------------------------------------------------------------


class TestDramSpec:
    def test_default_peak_matches_paper_flat_bandwidth(self):
        # 2 channels x 8 B/cycle = the paper's 16 elems/cycle at 8-bit.
        assert DEFAULT_DDR4_SPEC.peak_bytes_per_cycle == 16.0
        assert DEFAULT_DDR4_SPEC.mapping in KNOWN_MAPPINGS

    def test_derived_geometry(self):
        spec = DramSpec()
        assert spec.total_banks == spec.channels * spec.banks_per_channel
        assert spec.bank_bytes == spec.rows_per_bank * spec.row_bytes
        assert spec.capacity_bytes == spec.total_banks * spec.bank_bytes
        assert spec.row_miss_penalty == spec.t_rp + spec.t_rcd + spec.t_cas
        assert spec.row_open_penalty == spec.t_rcd + spec.t_cas
        # Per-channel bus occupancy, not the aggregate peak.
        assert spec.transfer_cycles(160) == 160 / spec.channel_bytes_per_cycle

    def test_validation_reports_every_invalid_field(self):
        with pytest.raises(ValueError) as excinfo:
            DramSpec(channels=0, t_rcd=-1, row_bytes=100, mapping="bogus")
        message = str(excinfo.value)
        assert message.startswith("invalid DramSpec: ")
        for field in ("channels", "t_rcd", "row_bytes", "mapping"):
            assert field in message
        assert message.count(";") >= 3

    def test_row_bytes_must_hold_whole_bursts(self):
        with pytest.raises(ValueError):
            DramSpec(row_bytes=96, burst_bytes=64)


# ----------------------------------------------------------------------
# Mapping policies
# ----------------------------------------------------------------------


def _regions(spec, sizes, traffics=None):
    traffics = traffics or [0] * len(sizes)
    regions, base = [], 0
    for i, (size, traffic) in enumerate(zip(sizes, traffics)):
        regions.append(
            Region(name=f"r{i}", index=i, base=base, size=size, traffic=traffic)
        )
        base += -(-size // spec.row_bytes) * spec.row_bytes
    return tuple(regions)


def _locate(layout, region, offsets):
    """``layout.locate`` over ``offsets`` of one region, as (c, b, r) tuples."""
    offsets = np.asarray(offsets, dtype=np.int64)
    region = np.full(offsets.shape, region, dtype=np.int64)
    return list(zip(*(coord.tolist() for coord in layout.locate(region, offsets))))


class TestMappings:
    def test_registry(self):
        assert set(MAPPING_NAMES) == set(KNOWN_MAPPINGS) == set(MAPPING_POLICIES)
        for name in MAPPING_NAMES:
            assert get_mapping(name).name == name
        with pytest.raises(KeyError, match="available"):
            get_mapping("nope")

    @pytest.mark.parametrize("name", MAPPING_NAMES)
    def test_locate_stays_in_range_and_is_deterministic(self, name):
        spec = DramSpec()
        regions = _regions(spec, [5 * spec.row_bytes, 300, 7000], [10, 20, 30])
        layout = get_mapping(name).layout(spec, regions)
        for region in regions:
            offsets = range(0, region.size, spec.row_bytes // 2)
            located = _locate(layout, region.index, offsets)
            for channel, bank, row in located:
                assert 0 <= channel < spec.channels
                assert 0 <= bank < spec.banks_per_channel
                assert 0 <= row < spec.rows_per_bank
            assert _locate(layout, region.index, offsets) == located

    def test_row_major_packs_small_tensors_into_one_bank(self):
        spec = DramSpec()
        regions = _regions(spec, [4 * spec.row_bytes, 4 * spec.row_bytes])
        layout = get_mapping("row_major").layout(spec, regions)
        coords = {
            coord[:2]
            for r in regions
            for coord in _locate(layout, r.index, range(0, r.size, spec.row_bytes))
        }
        assert coords == {(0, 0)}  # one bank of one channel: the conflict case

    def test_bank_interleaved_rotates_channels_then_banks(self):
        spec = DramSpec()
        regions = _regions(spec, [4 * spec.row_bytes])
        layout = get_mapping("bank_interleaved").layout(spec, regions)
        located = _locate(layout, 0, [block * spec.row_bytes for block in range(4)])
        assert located == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]

    def test_reuse_aware_gives_operands_disjoint_banks(self):
        spec = DramSpec()
        regions = _regions(
            spec,
            [8 * spec.row_bytes, 8 * spec.row_bytes, 8 * spec.row_bytes],
            [600, 300, 100],
        )
        layout = get_mapping("reuse_aware").layout(spec, regions)
        banks_per_region = [
            {
                coord[1]
                for coord in _locate(layout, r.index, range(0, r.size, spec.row_bytes))
            }
            for r in regions
        ]
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                assert not (banks_per_region[i] & banks_per_region[j])

    def test_partition_banks(self):
        assert partition_banks(8, (1, 1)) == ((0, 4), (4, 4))
        shares = partition_banks(8, (600, 300, 100))
        assert sum(count for _, count in shares) == 8
        assert all(count >= 1 for _, count in shares)
        assert shares[0][1] >= shares[1][1] >= shares[2][1]
        # More regions than banks: wrap round-robin, one bank each.
        assert partition_banks(2, (1, 1, 1)) == ((0, 1), (1, 1), (0, 1))
        with pytest.raises(ValueError):
            partition_banks(8, ())


# ----------------------------------------------------------------------
# Trace-driven backend
# ----------------------------------------------------------------------


class TestBackend:
    def test_sequential_row_costs_one_activation(self):
        spec = DramSpec(channels=1, banks_per_channel=1)
        regions = _regions(spec, [spec.row_bytes])
        stats = simulate_accesses(
            [DramAccess(region=0, offset=0, nbytes=spec.row_bytes)],
            regions,
            spec,
            get_mapping("row_major"),
        )
        assert stats.row_misses == stats.activations == 1
        assert stats.bursts == spec.row_bytes // spec.burst_bytes
        assert stats.row_hits == stats.bursts - 1
        # Cold bank: no precharge, just activate + CAS, then stream.
        assert stats.cycles == pytest.approx(
            spec.row_open_penalty + spec.row_bytes / spec.channel_bytes_per_cycle
        )

    def test_row_conflicts_pay_the_miss_penalty(self):
        spec = DramSpec(channels=1, banks_per_channel=1)
        regions = _regions(spec, [spec.row_bytes, spec.row_bytes])
        ping_pong = [
            DramAccess(region=i % 2, offset=0, nbytes=spec.row_bytes)
            for i in range(6)
        ]
        stats = simulate_accesses(
            ping_pong, regions, spec, get_mapping("row_major")
        )
        # Same bank, alternating rows: every access is a conflict.
        assert stats.row_misses == 6
        assert stats.cycles == pytest.approx(
            spec.row_open_penalty
            + 5 * spec.row_miss_penalty
            + 6 * spec.row_bytes / spec.channel_bytes_per_cycle
        )

    def test_bank_parallelism_hides_activations(self):
        spec = DramSpec(channels=1, banks_per_channel=8)
        regions = _regions(spec, [8 * spec.row_bytes])
        stream = [DramAccess(region=0, offset=0, nbytes=8 * spec.row_bytes)]
        interleaved = simulate_accesses(
            stream, regions, spec, get_mapping("bank_interleaved")
        )
        serial = simulate_accesses(
            stream, regions, spec, get_mapping("row_major")
        )
        assert interleaved.total_bytes == serial.total_bytes
        # Same bus, same bytes: spreading rows over banks overlaps the
        # activations that row_major serializes in its single bank.
        assert interleaved.cycles < serial.cycles

    def test_stats_invariants_and_merge(self):
        spec = DramSpec()
        regions = _regions(spec, [3 * spec.row_bytes], [3 * spec.row_bytes])
        stats = simulate_accesses(
            [
                DramAccess(region=0, offset=0, nbytes=2 * spec.row_bytes),
                DramAccess(region=0, offset=0, nbytes=512, write=True),
            ],
            regions,
            spec,
            get_mapping("bank_interleaved"),
        )
        assert stats.bursts == stats.row_hits + stats.row_misses
        assert stats.cycles >= stats.ideal_cycles
        assert stats.effective_bytes_per_cycle <= spec.peak_bytes_per_cycle
        assert stats.stall_cycles == pytest.approx(stats.cycles - stats.ideal_cycles)
        assert stats.energy_pj == pytest.approx(
            stats.act_energy_pj + stats.read_energy_pj + stats.write_energy_pj
        )
        assert stats.writes_bytes == 512
        merged = combine_stats([stats, stats])
        assert merged.total_bytes == 2 * stats.total_bytes
        assert merged.cycles == pytest.approx(2 * stats.cycles)
        assert combine_stats([]) == DramStats()

    def test_stream_span_counts_requests_segments_and_stall_events(self):
        from repro.obs import disable_tracing, enable_tracing

        spec = DramSpec(channels=1, banks_per_channel=1)
        regions = _regions(spec, [spec.row_bytes, spec.row_bytes])
        ping_pong = [
            DramAccess(region=i % 2, offset=0, nbytes=spec.row_bytes + 64 * (i == 0))
            for i in range(4)
        ]
        tracer = enable_tracing()
        try:
            simulate_accesses(ping_pong, regions, spec, get_mapping("row_major"))
            (span,) = [s for s in tracer.drain() if s.name == "dram_batch"]
        finally:
            disable_tracing()
        attrs = span.attr_dict()
        assert attrs["streams_count"] == 1
        assert attrs["requests_count"] == 4
        # The first request spills 64 bytes into row 1, which the second
        # request then hits.
        assert attrs["segments_count"] == 5
        # Every other row switch of the single bank is a stall event: it
        # follows the bank's previous segment with no bus time between.
        assert attrs["stall_events_count"] == attrs["row_misses_count"] == 4

    def test_access_and_region_validation(self):
        with pytest.raises(ValueError):
            DramAccess(region=0, offset=0, nbytes=0)
        with pytest.raises(ValueError):
            Region(name="x", index=0, base=0, size=0)


# ----------------------------------------------------------------------
# Schedule lowering
# ----------------------------------------------------------------------


class TestTrace:
    def test_regions_are_row_aligned_and_traffic_weighted(self, schedule, layer):
        regions = layer_regions(schedule, layer, 1, DEFAULT_DDR4_SPEC)
        assert [r.name for r in regions] == ["ifmap", "filters", "ofmap"]
        for region in regions:
            assert region.base % DEFAULT_DDR4_SPEC.row_bytes == 0
        assert regions[0].traffic == schedule.total_ifmap_load
        assert regions[1].traffic == schedule.total_filter_load
        assert regions[2].traffic == schedule.total_store

    def test_access_stream_conserves_schedule_traffic(self, schedule, layer):
        regions = layer_regions(schedule, layer, 1, DEFAULT_DDR4_SPEC)
        accesses = schedule_accesses(schedule, regions, 1)
        reads = sum(a.nbytes for a in accesses if not a.write)
        writes = sum(a.nbytes for a in accesses if a.write)
        assert reads == schedule.total_load
        assert writes == schedule.total_store
        for access in accesses:
            region = regions[access.region]
            assert 0 <= access.offset < region.size
            assert access.offset + access.nbytes <= region.size
        requests = schedule_requests([(schedule, regions)], 1, DEFAULT_DDR4_SPEC)
        assert list(
            zip(
                requests.region.tolist(),
                requests.offset.tolist(),
                requests.nbytes.tolist(),
                requests.write.tolist(),
            )
        ) == merged_chunks(accesses)

    @pytest.mark.parametrize("mapping", MAPPING_NAMES)
    def test_simulation_matches_schedule_bytes(self, schedule, layer, mapping):
        stats = simulate_schedule(schedule, layer, 1, DEFAULT_DDR4_SPEC, mapping)
        assert stats.reads_bytes == schedule.total_load
        assert stats.writes_bytes == schedule.total_store
        assert stats.cycles >= stats.ideal_cycles

    def test_effective_bandwidth_below_flat_peak(self, schedule, layer):
        bw = dram_effective_bandwidth(schedule, layer, DEFAULT_DDR4_SPEC, 1, 16.0)
        assert 0.0 < bw <= 16.0

    def test_clear_evaluation_memo_resets_dram_memo(self, monkeypatch):
        from repro import Objective, plan_heterogeneous
        from repro.dram import trace
        from repro.estimators.evaluate import clear_evaluation_memo

        calls = []
        original = trace.simulate_schedules

        def counting(items, *args, **kwargs):
            calls.extend(items)
            return original(items, *args, **kwargs)

        monkeypatch.setattr(trace, "simulate_schedules", counting)
        model = get_model("MobileNet")
        spec = AcceleratorSpec(glb_bytes=kib(512), dram=DEFAULT_DDR4_SPEC)
        clear_evaluation_memo()
        first = plan_heterogeneous(model, spec, Objective.LATENCY)
        cold = len(calls)
        assert cold > 0
        assert plan_heterogeneous(model, spec, Objective.LATENCY) == first
        assert len(calls) == cold  # every bandwidth memoized
        assert trace._BANDWIDTH_MEMO
        clear_evaluation_memo()
        assert not trace._BANDWIDTH_MEMO
        assert plan_heterogeneous(model, spec, Objective.LATENCY) == first
        assert len(calls) == 2 * cold  # cold again: every schedule re-simulated


    def test_batched_replay_keeps_the_counter_totals(self):
        # The dram_* counters of a cold DDR4 plan, then of re-pricing and
        # verifying it, as the one-replay-per-stream backend counted them.
        from repro import Objective, plan_heterogeneous
        from repro.estimators.evaluate import clear_evaluation_memo
        from repro.obs import metrics_registry
        from repro.verify import verify_plan

        def dram_counters() -> dict[str, float]:
            counters = metrics_registry().snapshot()["counters"]
            return {k: v for k, v in counters.items() if k.startswith("dram_")}

        def delta(before: dict[str, float]) -> dict[str, float]:
            return {k: v - before.get(k, 0.0) for k, v in dram_counters().items()}

        spec = AcceleratorSpec(glb_bytes=kib(256), dram=DEFAULT_DDR4_SPEC)
        clear_evaluation_memo()
        start = dram_counters()
        plan = plan_heterogeneous(get_model("MobileNet"), spec, Objective.LATENCY)
        assert delta(start) == {
            "dram_activations_count": 43902.0,
            "dram_reads_bytes": 54195184.0,
            "dram_row_hits_count": 1361483.0,
            "dram_row_misses_count": 43902.0,
            "dram_writes_bytes": 25945992.0,
        }
        planned = dram_counters()
        simulate_plan_dram(plan)
        assert verify_plan(plan).ok
        assert delta(planned) == {
            "dram_activations_count": 16730.0,
            "dram_reads_bytes": 21165702.0,
            "dram_row_hits_count": 497102.0,
            "dram_row_misses_count": 16730.0,
            "dram_writes_bytes": 10087376.0,
        }


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------


class TestWiring:
    @pytest.fixture(scope="class")
    def plans(self):
        model = get_model("ResNet18")
        flat = MemoryManager(SPEC).plan(model)
        banked = MemoryManager(SPEC.with_dram(DEFAULT_DDR4_SPEC)).plan(model)
        return flat, banked

    def test_no_dram_spec_is_bit_identical(self, schedule, layer):
        with_layer = schedule_latency(schedule, SPEC, True, layer=layer)
        without = schedule_latency(schedule, SPEC, True)
        assert with_layer == without

    def test_dram_latency_never_beats_flat(self, schedule, layer):
        banked = SPEC.with_dram(DEFAULT_DDR4_SPEC)
        flat = schedule_latency(schedule, SPEC, True, layer=layer)
        aware = schedule_latency(schedule, banked, True, layer=layer)
        assert aware.total_cycles >= flat.total_cycles - 1e-9

    def test_plan_level_latency_ordering(self, plans):
        flat, banked = plans
        assert banked.total_latency_cycles >= flat.total_latency_cycles - 1e-9
        # Same traffic either way: DRAM changes timing, not byte counts.
        assert banked.total_accesses_bytes == flat.total_accesses_bytes

    def test_engine_agrees_with_estimator_under_dram(self, plans):
        from repro.sim.engine import simulate_plan

        _, banked = plans
        sim = simulate_plan(banked)
        assert sim.total_cycles == pytest.approx(banked.total_latency_cycles)

    def test_energy_split_only_with_dram(self, plans):
        from repro.energy import plan_energy

        flat, banked = plans
        flat_energy = plan_energy(flat)
        assert (flat_energy.dram_act_pj, flat_energy.dram_read_pj) == (0.0, 0.0)
        banked_energy = plan_energy(banked)
        assert banked_energy.dram_pj == pytest.approx(
            banked_energy.dram_act_pj
            + banked_energy.dram_read_pj
            + banked_energy.dram_write_pj
        )
        assert banked_energy.dram_act_pj > 0

    def test_bare_mapping_name_is_a_type_error(self, plans):
        flat, _ = plans
        with pytest.raises(TypeError, match="mappings"):
            simulate_plan_dram(flat, DEFAULT_DDR4_SPEC, "row_major")

    def test_manager_simulate_dram_sweeps_mappings(self, plans):
        flat, _ = plans
        results = {
            result.mapping: result
            for result in simulate_plan_dram(flat, DEFAULT_DDR4_SPEC, MAPPING_NAMES)
        }
        assert tuple(results) == MAPPING_NAMES
        assert results["bank_interleaved"].total.cycles < (
            results["row_major"].total.cycles
        )
        for result in results.values():
            assert 0.0 < result.total.row_hit_rate <= 1.0
            assert result.total.cycles >= result.total.ideal_cycles

    def test_one_lowering_prices_like_one_mapping_at_a_time(self, plans):
        flat, banked = plans
        together = simulate_plan_dram(flat, DEFAULT_DDR4_SPEC, MAPPING_NAMES)
        assert together == [
            simulate_plan_dram(flat, DEFAULT_DDR4_SPEC, [get_mapping(name)])[0]
            for name in MAPPING_NAMES
        ]
        (default,) = simulate_plan_dram(banked)
        assert default.mapping == DEFAULT_DDR4_SPEC.mapping

    def test_plan_without_dram_needs_explicit_spec(self, plans):
        flat, _ = plans
        with pytest.raises(ValueError, match="DramSpec"):
            simulate_plan_dram(flat)

    def test_dram_backed_plans_verify(self, plans):
        from repro.verify import verify_plan

        _, banked = plans
        assert verify_plan(banked).ok


class TestSweepExperiment:
    def test_bank_interleaved_beats_row_major_across_the_zoo(self):
        from repro.experiments import dram_sweep

        cells = dram_sweep.run(glb_kb=64)
        cycles = {}
        for cell in cells:
            cycles.setdefault(cell.model, {})[cell.mapping] = cell.stats.cycles
        assert len(cycles) == 6
        wins = sum(
            1
            for per_mapping in cycles.values()
            if per_mapping["bank_interleaved"] < per_mapping["row_major"]
        )
        assert wins >= 4  # the ISSUE acceptance bar; in practice 6/6
        table = dram_sweep.to_table(cells, title="Het_a @ 64 kB").render()
        assert "row_major" in table and "bank_interleaved" in table

    def test_table_title_is_required(self):
        from repro.experiments import dram_sweep

        with pytest.raises(TypeError):
            dram_sweep.to_table([])

    def test_sweep_lowers_each_plan_once(self, monkeypatch):
        from repro.dram import trace
        from repro.experiments import dram_sweep

        lowered = []
        real = trace.schedule_requests

        def counting(items, *args, **kwargs):
            lowered.append(len(items))
            return real(items, *args, **kwargs)

        monkeypatch.setattr(trace, "schedule_requests", counting)
        cells = dram_sweep.run()
        assert len(cells) == 6 * len(MAPPING_NAMES)
        assert len(lowered) == 6  # one per plan, however many mappings

    def test_cli_prints_the_artifact_rows(self, capsys):
        from repro.cli import main
        from repro.experiments.runner import ARTIFACTS

        assert main(["dram", "--all", "--glb", "256"]) == 0
        cli = capsys.readouterr().out.splitlines()
        artifact = ARTIFACTS["dram-sweep"]().render().splitlines()
        # Only the title (and its underline) differ.
        assert len(cli) == 4 + 6 * len(MAPPING_NAMES)
        assert cli[2:] == artifact[2:]

    def test_reuses_plans_built_earlier_in_the_process(self, monkeypatch):
        """With the disk cache off, the sweep takes a plan another artifact
        already built from the in-process memo instead of planning again."""
        from repro.experiments import cache, common, dram_sweep
        from repro.obs import metrics_registry

        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        common.clear_in_process_caches()
        planned = metrics_registry().counter("planner_layers_count")
        common.het_plan("MnasNet", 256)
        before = planned.value
        assert before > 0
        dram_sweep.run(models=("MnasNet",), glb_kb=256)
        assert planned.value == before

    def test_cli_dram_subcommand(self, capsys):
        from repro.cli import main

        assert main(["dram", "ResNet18", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        for name in MAPPING_NAMES:
            assert name in out
        assert main(["dram", "ResNet18", "--mappings", "bogus"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown mapping(s) ['bogus']")
