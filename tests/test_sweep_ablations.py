"""Design-space sweeps and ablation studies."""

from repro.analyzer import Objective, plan_heterogeneous
from repro.arch import AcceleratorSpec, kib
from repro.experiments.ablations import (
    baseline_dataflows,
    baseline_dataflows_table,
    fallback_participation,
    fallback_participation_table,
    interlayer_modes,
    interlayer_modes_table,
)
from repro.experiments.sweep import glb_sweep, sweep_table
from repro.nn.zoo import get_model


class TestGlbSweep:
    def test_accesses_monotone_nonincreasing(self):
        model = get_model("MobileNet")
        points = glb_sweep(model, [kib(64), kib(256), kib(1024)])
        accesses = [p.accesses_bytes for p in points]
        assert accesses == sorted(accesses, reverse=True)

    def test_peak_memory_fits(self):
        model = get_model("MobileNet")
        for point in glb_sweep(model, [kib(64), kib(512)]):
            assert point.max_memory_bytes <= point.value

    def test_policies_recorded(self):
        model = get_model("MobileNet")
        points = glb_sweep(model, [kib(64)])
        assert points[0].policies

    def test_table(self):
        model = get_model("MobileNet")
        table = sweep_table("t", "glb", glb_sweep(model, [kib(64), kib(128)]))
        assert "accesses (MB)" in table.headers[1]
        assert len(table.rows) == 2


class TestBandwidthSweep:
    @staticmethod
    def _latencies(model, bandwidths):
        return [
            plan_heterogeneous(
                model,
                AcceleratorSpec(dram_bandwidth_elems_per_cycle=bandwidth),
                Objective.LATENCY,
            ).total_latency_cycles
            for bandwidth in bandwidths
        ]

    def test_latency_monotone_in_bandwidth(self):
        latencies = self._latencies(get_model("MobileNet"), [4, 16, 64])
        assert latencies == sorted(latencies, reverse=True)

    def test_latency_floor_is_compute(self):
        model = get_model("MobileNet")
        [huge_bw] = self._latencies(model, [10_000])
        compute_floor = model.total_macs / 256.0
        assert huge_bw >= compute_floor - 1


class TestSmallestGlb:
    def test_finds_knee(self):
        model = get_model("MnasNet")
        sizes = [kib(s) for s in (64, 128, 256, 512, 1024)]
        points = glb_sweep(model, sizes)
        threshold = points[-1].accesses_bytes * 1.05
        knee = next(p for p in points if p.accesses_bytes <= threshold)
        # Het accesses are nearly flat for MnasNet: the knee is the
        # smallest size.
        assert knee.value == kib(64)
        assert len(points) == 5


class TestInterlayerAblation:
    def test_table(self):
        rows = interlayer_modes(glb_sizes_kb=(64,))
        assert "joint" in interlayer_modes_table(rows).render()


class TestFallbackAblation:
    def test_search_never_hurts(self):
        rows = fallback_participation(
            model_names=("ResNet18",), glb_sizes_kb=(64, 128)
        )
        for r in rows:
            assert r.with_search_mib <= r.named_only_mib + 1e-9

    def test_search_helps_somewhere(self):
        """The ablation exists because the search wins on some layers."""
        rows = fallback_participation(
            model_names=("ResNet18", "EfficientNetB0"), glb_sizes_kb=(64,)
        )
        assert any(r.search_benefit_pct > 0.5 for r in rows)

    def test_table(self):
        rows = fallback_participation(model_names=("ResNet18",), glb_sizes_kb=(64,))
        assert "named-only" in fallback_participation_table(rows).render()


class TestDataflowAblation:
    def test_all_dataflows_run(self):
        rows = baseline_dataflows(model_names=("MobileNet",))
        row = rows[0]
        assert row.os_cycles > 0 and row.ws_cycles > 0 and row.is_cycles > 0

    def test_table(self):
        rows = baseline_dataflows(model_names=("MobileNet",))
        text = baseline_dataflows_table(rows).render()
        assert "OS" in text and "WS" in text and "IS" in text
