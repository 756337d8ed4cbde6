"""Experiment engine: persistent cache, parallel parity, CLI errors.

Every test isolates the persistent cache in a tmp directory via
``REPRO_CACHE_DIR`` (worker processes inherit it) and drops the
in-process memoization so the on-disk path is actually exercised.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import os
import pickle

import pytest

from repro.analyzer import Objective
from repro.arch.spec import AcceleratorSpec
from repro.experiments import cache, common, engine
from repro.experiments.engine import run_experiments
from repro.experiments.runner import UnknownArtifactError, main, run_all, run_report
from repro.manager import MemoryManager
from repro.nn.zoo import get_model
from repro.obs import ENV_TRACE, metrics_registry
from repro.obs.audit import LayerDecision

#: Fast artifact subset used for the parity checks.
FAST_SUBSET = ["table2", "fig1", "dram-sweep"]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the persistent cache at a fresh tmp dir and reset memoization."""
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "plan-cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    common.clear_in_process_caches()
    metrics_registry().reset()
    yield
    common.clear_in_process_caches()
    metrics_registry().reset()


class TestCacheKeys:
    def test_data_width_always_changes_the_key(self):
        """Two specs differing *only* in data width never share an entry."""
        model = get_model("MobileNet")
        spec8 = AcceleratorSpec(data_width_bits=8)
        spec16 = AcceleratorSpec(data_width_bits=16)
        for scheme in ("het", "hom"):
            key8 = cache.plan_cache_key(scheme, model, spec8, Objective.ACCESSES)
            key16 = cache.plan_cache_key(scheme, model, spec16, Objective.ACCESSES)
            assert key8 != key16

    def test_data_width_entries_disjoint_on_disk(self):
        """Planning at 8- and 16-bit widths stores two distinct entries."""
        common.het_plan("MobileNet", 64, Objective.ACCESSES, 8)
        assert cache.entry_count() == 1
        common.het_plan("MobileNet", 64, Objective.ACCESSES, 16)
        assert cache.entry_count() == 2
        # And the 16-bit lookup was a miss, not a stale 8-bit hit.
        assert cache.counters()["hits"] == 0
        assert cache.counters()["misses"] == 2

    def test_interlayer_mode_in_key(self):
        model = get_model("MnasNet")
        spec = AcceleratorSpec()
        opp = cache.plan_cache_key(
            "het", model, spec, Objective.ACCESSES, interlayer=True
        )
        joint = cache.plan_cache_key(
            "het", model, spec, Objective.ACCESSES, interlayer=True,
            interlayer_mode="joint",
        )
        off = cache.plan_cache_key("het", model, spec, Objective.ACCESSES)
        assert len({opp, joint, off}) == 3

    def test_spec_payload_covers_every_field(self):
        payload = cache.spec_payload(AcceleratorSpec())
        assert set(payload) == {
            f.name for f in dataclasses.fields(AcceleratorSpec)
        }
        assert payload["data_width_bits"] == 8

    def test_dram_fields_in_payload(self):
        from repro.dram import DEFAULT_DDR4_SPEC

        flat = cache.spec_payload(AcceleratorSpec())
        banked = cache.spec_payload(AcceleratorSpec().with_dram(DEFAULT_DDR4_SPEC))
        assert flat["dram"] is None
        assert banked["dram"]["channels"] == DEFAULT_DDR4_SPEC.channels
        assert flat != banked

    def test_model_digest_depends_on_dims(self):
        base = cache.model_digest(get_model("MobileNetV2"))
        resized = cache.model_digest(get_model("MobileNetV2", input_size=128))
        assert base != resized

    def test_schema_version_in_key(self, monkeypatch):
        model = get_model("MobileNet")
        spec = AcceleratorSpec()
        key1 = cache.plan_cache_key("het", model, spec, Objective.ACCESSES)
        monkeypatch.setattr(cache, "CACHE_SCHEMA_VERSION", cache.CACHE_SCHEMA_VERSION + 1)
        key2 = cache.plan_cache_key("het", model, spec, Objective.ACCESSES)
        assert key1 != key2


class TestCacheStorage:
    def test_round_trip_is_bit_identical(self):
        plan = common.het_plan("MobileNet", 64)
        common.clear_in_process_caches()
        again = common.het_plan("MobileNet", 64)
        assert cache.counters()["hits"] >= 1
        assert again.total_accesses_bytes == plan.total_accesses_bytes
        assert again.total_latency_cycles == plan.total_latency_cycles
        assert [a.label for a in again] == [a.label for a in plan]

    def test_corrupt_entry_recomputes(self):
        common.het_plan("MobileNet", 64)
        [entry] = list(cache.cache_dir().rglob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        common.clear_in_process_caches()
        plan = common.het_plan("MobileNet", 64)
        assert plan.total_accesses_bytes > 0
        assert not entry.exists() or entry.read_bytes() != b"not a pickle"

    def test_pre_row_trail_entry_recomputes(self):
        """An entry pickled when trails held ``CandidateRecord`` instances
        is refused on load and recomputed, never served with a wrong trail."""
        model = get_model("MobileNet")
        manager = MemoryManager(common.spec_for(64))
        fresh = manager.plan(model)

        class OldShapePickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is not LayerDecision:
                    return NotImplemented
                state = {"index": obj.index, "layer": obj.layer, "candidates": obj.candidates}
                return copyreg.__newobj__, (LayerDecision,), state

        buffer = io.BytesIO()
        OldShapePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(fresh)
        assert b"CandidateRecord" in buffer.getvalue()
        key = cache.plan_cache_key("het", model, manager.spec, Objective.ACCESSES)
        entry = cache.cache_dir() / key[:2] / f"{key}.pkl"
        entry.parent.mkdir(parents=True)
        entry.write_bytes(buffer.getvalue())

        plan, hit, got_key = manager.plan_cached_detail(model)
        assert (hit, got_key) == (False, key)
        assert plan == fresh
        assert plan.explain().to_payload() == fresh.explain().to_payload()
        again, hit, _ = manager.plan_cached_detail(model)
        assert hit and again == fresh

    def test_plan_pickle_holds_no_candidate_records(self):
        plan = common.het_plan("MobileNet", 64)
        assert b"CandidateRecord" not in pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)

    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        common.het_plan("MobileNet", 64)
        assert cache.entry_count() == 0

    def test_clear_removes_entries(self):
        common.het_plan("MobileNet", 64)
        common.hom_plan("MobileNet", 64)
        assert cache.entry_count() == 2
        assert cache.clear() == 2
        assert cache.entry_count() == 0

    def test_manager_plan_cached_shares_keys_with_common(self):
        spec = common.spec_for(64)
        plan = MemoryManager(spec).plan_cached(get_model("MobileNet"))
        assert cache.entry_count() == 1
        common.clear_in_process_caches()
        metrics_registry().reset()
        via_common = common.het_plan("MobileNet", 64)
        assert cache.counters()["hits"] == 1  # same entry, no recompute
        assert via_common.total_accesses_bytes == plan.total_accesses_bytes


class TestImmutability:
    def test_baseline_results_read_only(self):
        results = common.baseline_results("MobileNet", 64)
        with pytest.raises(TypeError):
            results["sa_50_50"] = None  # type: ignore[index]
        with pytest.raises((TypeError, AttributeError)):
            results.clear()  # type: ignore[attr-defined]
        # The mapping refetched later is uncorrupted.
        again = common.baseline_results("MobileNet", 64)
        assert set(again) == {"sa_25_75", "sa_50_50", "sa_75_25"}

    def test_plans_are_frozen(self):
        plan = common.het_plan("MobileNet", 64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.scheme = "tampered"  # type: ignore[misc]
        assignment = plan.assignments[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            assignment.accesses_bytes = 0  # type: ignore[misc]


class TestUnknownArtifact:
    def test_run_all_raises_typed_error(self):
        with pytest.raises(UnknownArtifactError) as err:
            run_all(only=["fig99", "table2"])
        assert err.value.unknown == ["fig99"]
        assert "table2" in err.value.available
        assert "fig99" in str(err.value)

    def test_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            run_all(only=["fig99"])

    def test_module_cli_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "table2" in err  # available ids are listed

    def test_repro_cli_exits_2(self, capsys):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit) as exc:
            repro_main(["experiments", "fig99"])
        assert exc.value.code == 2
        assert "available artifacts" in capsys.readouterr().err

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "0", "table2"])
        assert exc.value.code == 2

    def test_repro_cli_errors_name_the_subcommand(self, capsys):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit) as exc:
            repro_main(["experiments", "--jobs", "0", "table2"])
        assert exc.value.code == 2
        assert "repro experiments: error: --jobs must be >= 1" in capsys.readouterr().err


def _renders(tables):
    return [t.render() for t in tables]


class TestParity:
    """Serial, parallel and warm-cache runs must be bit-identical."""

    def test_serial_vs_parallel_vs_warm(self):
        serial = run_experiments(FAST_SUBSET, jobs=1)
        serial_out = _renders(serial.tables)

        common.clear_in_process_caches()
        parallel = run_experiments(FAST_SUBSET, jobs=4)
        assert _renders(parallel.tables) == serial_out

        common.clear_in_process_caches()
        warm = run_experiments(FAST_SUBSET, jobs=1)
        assert _renders(warm.tables) == serial_out
        assert warm.cache_hits > 0

    def test_pool_gets_no_more_workers_than_artifacts(self, monkeypatch):
        class InlinePool:
            """Runs each call in the calling thread: no process starts."""

            sizes: list[int] = []

            def __init__(self, max_workers, initializer=None):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return [fn(item) for item in iterable]

        serial = _renders(run_experiments(["table2", "fig1"], jobs=1).tables)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
        one = run_experiments(["table2"], jobs=64)
        two = run_experiments(["table2", "fig1"], jobs=64)
        assert InlinePool.sizes == [1, 2]
        assert (one.jobs, two.jobs) == (64, 64)
        assert _renders(two.tables) == serial

    def test_csv_export_identical(self, tmp_path):
        run_all(csv_dir=str(tmp_path / "a"), only=["table2", "dram-sweep"])
        common.clear_in_process_caches()
        run_all(csv_dir=str(tmp_path / "b"), only=["table2", "dram-sweep"], jobs=2)
        for name in ("table2", "dram-sweep"):
            cold = (tmp_path / "a" / f"{name}.csv").read_text()
            warm = (tmp_path / "b" / f"{name}.csv").read_text()
            assert cold == warm


class TestInstrumentation:
    def test_report_summary(self):
        report = run_report(only=["table2", "dram-sweep"])
        summary = report.summary_table().render()
        assert "table2" in summary and "dram-sweep" in summary
        assert "TOTAL" in summary
        assert report.jobs == 1
        assert [r.name for r in report.results] == ["table2", "dram-sweep"]
        assert all(r.seconds >= 0 for r in report.results)

    def test_warm_run_reports_hits(self):
        run_report(only=["dram-sweep"])
        common.clear_in_process_caches()
        warm = run_report(only=["dram-sweep"])
        assert warm.results[0].cache_hits >= 6  # one het plan per zoo model


class TestRunnerCli:
    def test_jobs_flag(self, capsys):
        assert main(["--jobs", "2", "table2", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Experiment engine summary (jobs=2)" in out

    def test_no_cache_flag(self, capsys):
        assert main(["--no-cache", "table2"]) == 0
        assert cache.entry_count() == 0

    def test_no_cache_flag_does_not_leak_into_the_caller(self, capsys):
        assert main(["--no-cache", "table2"]) == 0
        assert cache.cache_enabled()
        common.het_plan("MobileNet", 64)
        assert cache.entry_count() == 1

    def test_flags_are_undone_when_the_run_raises(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import runner
        from repro.obs import get_tracer

        def boom(**kwargs):
            assert not cache.cache_enabled()
            assert get_tracer().enabled
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "run_report", boom)
        argv = ["--no-cache", "--trace-out", str(tmp_path / "t.json"), "table2"]
        with pytest.raises(RuntimeError, match="boom"):
            main(argv)
        assert cache.cache_enabled()
        assert not get_tracer().enabled
        assert ENV_TRACE not in os.environ

    def test_inherited_kill_switch_stays_set(self, monkeypatch, capsys):
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        assert main(["--no-cache", "table2"]) == 0
        assert not cache.cache_enabled()
