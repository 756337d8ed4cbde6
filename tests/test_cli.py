"""Command-line interface."""

import json

import pytest

from repro.arch import MAX_MODEL_LAYERS
from repro.cli import main
from repro.manager import MemoryManager
from repro.nn import save_model
from repro.nn.io import layer_to_dict
from repro.nn.zoo import get_model

#: AlexNet's last layer as a JSON model-file record.
_FC = layer_to_dict(get_model("AlexNet").layers[-1])


class TestModelsAndInspect:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("ResNet18", "MobileNet", "EfficientNetB0"):
            assert name in out

    def test_inspect_zoo_model(self, capsys):
        assert main(["inspect", "ResNet18"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "224x224x3" in out

    def test_inspect_json_model(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        save_model(get_model("MobileNet"), path)
        assert main(["inspect", str(path)]) == 0
        assert "dw1" in capsys.readouterr().out

    def test_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["inspect", "NotAModel"])


class TestPlan:
    def test_plan_summary(self, capsys):
        assert main(["plan", "MobileNet", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        assert "totals:" in out
        assert "prefetch coverage" in out

    def test_plan_latency_objective(self, capsys):
        assert main(["plan", "MobileNet", "--objective", "latency"]) == 0

    def test_plan_interlayer_flags_column(self, capsys):
        assert main(["plan", "MnasNet", "--glb", "1024", "--interlayer"]) == 0
        out = capsys.readouterr().out
        assert " d" in out or "rd" in out  # donation markers

    def test_plan_export(self, capsys, tmp_path):
        out_file = tmp_path / "plan.json"
        assert main(["plan", "MobileNet", "--export", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["model"] == "MobileNet"

    @pytest.mark.parametrize("name", ["AlexNet", "alexnet"])
    def test_plan_any_zoo_model_in_any_case(self, name, capsys):
        assert main(["plan", name, "--glb", "64"]) == 0
        assert "AlexNet" in capsys.readouterr().out

    def test_plan_unknown_model_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "NotAModel"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown model 'NotAModel'\n")
        assert "AlexNet" in err and "ResNet18" in err  # lists the whole zoo

    @pytest.mark.parametrize(
        ("content", "reason"),
        [
            ('{"name": "x", "layers": []}', "x: model has no layers"),
            ("not json", "Expecting value"),
            (None, f"MAX_MODEL_LAYERS={MAX_MODEL_LAYERS}"),
            ("[1]", "model record must be a JSON object"),
            ('{"name": "x", "layers": [1]}', "bad layer record 1: not a JSON object"),
            (
                json.dumps({"name": "x", "layers": [dict(_FC, in_c="9216")]}),
                "fields ['in_c'] have the wrong type",
            ),
        ],
        ids=["empty", "not-json", "too-deep", "not-an-object", "layer-not-an-object",
             "mistyped-field"],
    )
    def test_plan_bad_model_file_exits_2(self, capsys, tmp_path, content, reason):
        path = tmp_path / "model.json"
        if content is None:
            layers = [dict(_FC, name=f"fc{i}") for i in range(MAX_MODEL_LAYERS + 1)]
            content = json.dumps({"name": "deep", "layers": layers})
        path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["plan", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad model file {str(path)!r}: ")
        assert reason in err and err.count("\n") == 1 and "Traceback" not in err

    def test_plan_directory_as_model_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["plan", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad model file {str(tmp_path)!r}: ")
        assert err.count("\n") == 1

    def test_plan_hom_scheme(self, capsys):
        assert main(["plan", "MobileNet", "--scheme", "hom(p1)"]) == 0
        out = capsys.readouterr().out
        assert "hom(p1)" in out

    @pytest.mark.parametrize("command", ["plan", "explain", "verify"])
    @pytest.mark.parametrize("scheme", ["hom(p99)", "hom(tiled)"])
    def test_unknown_scheme_is_one_error_line(self, command, scheme, monkeypatch):
        def plan(*args, **kwargs):
            raise AssertionError("planned an unknown scheme")

        monkeypatch.setattr(MemoryManager, "plan", plan)
        with pytest.raises(SystemExit) as exc:
            main([command, "MobileNet", "--scheme", scheme])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"error: unknown scheme {scheme!r}")
        assert "hom(p1)" in message


class TestBaselineCompareSweep:
    def test_baseline(self, capsys):
        assert main(["baseline", "MobileNet", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        assert "sa_25_75" in out and "sa_75_25" in out

    def test_compare(self, capsys):
        assert main(["compare", "MobileNet", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        assert "access reduction vs best baseline" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "MobileNet", "--glb-list", "64,128"]) == 0
        out = capsys.readouterr().out
        assert "65536" in out and "131072" in out

    def test_experiments_subcommand(self, capsys, tmp_path):
        assert main(["experiments", "table2", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "table2.csv").exists()
        assert "Table 2" in capsys.readouterr().out

    def test_experiments_jobs(self, capsys):
        assert main(["experiments", "table2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Experiment engine summary (jobs=2)" in out

    def test_experiments_trace_out_roundtrip(self, capsys, tmp_path, monkeypatch):
        from repro.report.diagnostics import validate_telemetry_payload

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace = tmp_path / "trace.json"
        assert main(["experiments", "table2", "--trace-out", str(trace), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "Run metrics" in out
        payload = json.loads(trace.read_text())
        assert validate_telemetry_payload(payload) == []
        assert any(e["name"] == "artifact" for e in payload["traceEvents"])

    def test_experiments_unknown_artifact_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "table2" in err


class TestEvaluate:
    def test_evaluate_layer(self, capsys):
        assert main(["evaluate", "ResNet18", "conv2_1a", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        assert "policy candidates" in out
        assert "p1" in out and "tiled" in out

    def test_evaluate_unknown_layer(self):
        with pytest.raises(KeyError):
            main(["evaluate", "ResNet18", "not_a_layer"])


class TestExplain:
    def test_explain_table_case_insensitive(self, capsys):
        assert main(["explain", "resnet18", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        assert "decision audit" in out
        assert "* " in out  # every layer marks its chosen candidate
        assert "rejected" in out  # and at least one losing candidate
        assert "candidates considered" in out

    def test_explain_json_payload(self, capsys):
        assert main(["explain", "MobileNet", "--glb", "64", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "het"
        assert payload["layers"]
        for layer in payload["layers"]:
            statuses = [c["status"] for c in layer["candidates"]]
            assert statuses.count("chosen") == 1
            rejected = [c for c in layer["candidates"] if c["status"] != "chosen"]
            assert all(c["reason"] for c in rejected)

    def test_explain_layer_filter(self, capsys):
        assert main(["explain", "ResNet18", "--glb", "64", "--layer", "conv1"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "conv2_1a" not in out

    def test_explain_unknown_model_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "NotAModel"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "NotAModel" in err and "ResNet18" in err  # lists available ids

    def test_explain_unknown_layer_exits_2(self, capsys):
        assert main(["explain", "ResNet18", "--layer", "not_a_layer"]) == 2
        assert "not_a_layer" in capsys.readouterr().err


class TestExtensionCommands:
    def test_layout(self, capsys):
        assert main(["layout", "MobileNet", "--glb", "64"]) == 0
        out = capsys.readouterr().out
        assert "address map" in out and "ifmap" in out

    def test_trace(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        assert main(["trace", "ResNet18", "conv2_1a", str(out_file), "--glb", "1024"]) == 0
        assert out_file.exists()
        assert "DRAM transactions" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["bounds", "ResNet18", "--glb", "64"]) == 0
        assert "lower bound" in capsys.readouterr().out

    def test_pareto(self, capsys):
        assert main(["pareto", "MobileNet", "--glb", "64", "--points", "3"]) == 0
        assert "Pareto frontier" in capsys.readouterr().out
