"""Command-line interface."""

import json

import pytest

from repro.analyzer.planner import SCHEMES
from repro.arch import MAX_MODEL_LAYERS, bounds
from repro.arch.units import kib
from repro.cli import main
from repro.manager import MemoryManager
from repro.nn import save_model
from repro.nn.io import layer_to_dict
from repro.nn.zoo import ALL_MODEL_NAMES, get_model
from repro.serve.handlers import execute

#: AlexNet's last layer as a JSON model-file record.
_FC = layer_to_dict(get_model("AlexNet").layers[-1])

#: Every command that takes a model and the accelerator flags, as argv.
_MODEL_COMMANDS = {
    "plan": ["plan", "{model}"],
    "explain": ["explain", "{model}"],
    "compare": ["compare", "{model}"],
    "baseline": ["baseline", "{model}"],
    "inspect": ["inspect", "{model}"],
    "layout": ["layout", "{model}"],
    "bounds": ["bounds", "{model}"],
    "pareto": ["pareto", "{model}"],
    "evaluate": ["evaluate", "{model}", "{layer}"],
    "trace": ["trace", "{model}", "{layer}", "{out}"],
    "verify": ["verify", "{model}"],
    "dram": ["dram", "{model}"],
}

#: Accelerator flag → (request field, values just outside ``arch/bounds.py``).
_SPEC_FAULTS = {
    "--glb": ("glb_kb", (0, bounds.MAX_GLB_BYTES // kib(1) + 1)),
    "--width": ("data_width_bits", (0, bounds.MAX_DATA_WIDTH_BITS + 8)),
    "--ops": ("ops_per_cycle", (0, bounds.MAX_OPS_PER_CYCLE + 1)),
    "--bandwidth": (
        "dram_bandwidth_elems_per_cycle",
        (-1.0, bounds.MAX_DRAM_BANDWIDTH_ELEMS_PER_CYCLE * 2, float("nan")),
    ),
}

#: fault → (argv substitutions and extra flags, the commands it applies
#: to, the start of its message; ``None`` for the daemon's message).
_FAULTS: dict[str, tuple[dict, tuple[str, ...], str | None]] = {
    **{
        f"{flag}={value}": (
            {"flags": [f"{flag}={value}"], "request": {field: value}},
            tuple(_MODEL_COMMANDS),
            None,
        )
        for flag, (field, values) in _SPEC_FAULTS.items()
        for value in values
    },
    "unknown-model": (
        {"model": "NotAModel"},
        tuple(_MODEL_COMMANDS),
        f"unknown model 'NotAModel'; available: {', '.join(ALL_MODEL_NAMES)}",
    ),
    "bad-model-file": ({"model": "{file}"}, tuple(_MODEL_COMMANDS), "bad model file "),
    "unknown-scheme": (
        {"flags": ["--scheme", "hom(p99)"]},
        ("plan", "explain", "verify"),
        f"unknown scheme 'hom(p99)'; choose one of {', '.join(SCHEMES)}",
    ),
    "hom-interlayer": (
        {"flags": ["--scheme", "hom", "--interlayer"]},
        ("plan", "explain"),
        "inter-layer reuse is only supported for the het scheme",
    ),
    "unknown-layer": (
        {"layer": "nope"},
        ("evaluate", "trace"),
        "ResNet18 has no layer 'nope' (see `repro inspect ResNet18`)",
    ),
    "explain-unknown-layer": (
        {"flags": ["--layer", "nope"]},
        ("explain",),
        "ResNet18 has no layer 'nope'",
    ),
    "unknown-mapping": ({"flags": ["--mappings", "bogus"]}, ("dram",), "unknown mapping(s) "),
    "malformed-glb-list": (
        {"flags": ["--glb-list", "64,x"]},
        ("verify",),
        "GLB sizes must be comma-separated kB integers, got '64,x'",
    ),
    "glb-list-out-of-bounds": (
        {"flags": ["--glb-list", "64,0"]},
        ("verify",),
        "invalid AcceleratorSpec: glb_bytes must be positive, got 0",
    ),
}


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

    def test_unknown_model(self, capsys):
        assert main(["inspect", "NotAModel"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown model 'NotAModel'")


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
        assert main(["plan", "NotAModel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown model 'NotAModel'; available: ")
        assert err.count("\n") == 1
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
        assert main(["plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad model file {str(path)!r}: ")
        assert reason in err and err.count("\n") == 1 and "Traceback" not in err

    def test_plan_directory_as_model_exits_2(self, capsys, tmp_path):
        assert main(["plan", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad model file {str(tmp_path)!r}: ")
        assert err.count("\n") == 1

    def test_plan_hom_scheme(self, capsys):
        assert main(["plan", "MobileNet", "--scheme", "hom(p1)"]) == 0
        out = capsys.readouterr().out
        assert "hom(p1)" in out

    @pytest.mark.parametrize("command", ["plan", "explain", "verify"])
    @pytest.mark.parametrize("scheme", ["hom(p99)", "hom(tiled)"])
    def test_unknown_scheme_is_one_error_line(self, command, scheme, monkeypatch, capsys):
        def plan(*args, **kwargs):
            raise AssertionError("planned an unknown scheme")

        monkeypatch.setattr(MemoryManager, "plan", plan)
        assert main([command, "MobileNet", "--scheme", scheme]) == 2
        message = capsys.readouterr().err
        assert message.count("\n") == 1
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

    def test_evaluate_unknown_layer(self, capsys):
        assert main(["evaluate", "ResNet18", "not_a_layer"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ResNet18 has no layer 'not_a_layer'")
        assert err.count("\n") == 1


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
        assert main(["explain", "NotAModel"]) == 2
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


@pytest.mark.parametrize(
    ("command", "fault"),
    [(command, fault) for fault, (_, commands, _) in _FAULTS.items() for command in commands],
)
def test_bad_input_is_one_error_line_and_exit_2(command, fault, capsys, tmp_path, monkeypatch):
    def plan(*args, **kwargs):
        raise AssertionError("planned a bad input")

    monkeypatch.setattr(MemoryManager, "plan", plan)
    change, _, expected = _FAULTS[fault]
    bad_file = tmp_path / "model.json"
    bad_file.write_text("not json")
    fields = {"model": "ResNet18", "layer": "conv1", "out": str(tmp_path / "t.csv")}
    fields.update((k, v) for k, v in change.items() if k in fields)
    if fields["model"] == "{file}":
        fields["model"] = str(bad_file)
    argv = [arg.format(**fields) for arg in _MODEL_COMMANDS[command]]
    assert main(argv + change.get("flags", [])) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if expected is None:  # a spec outside the bounds: the daemon's message
        status, envelope = execute("plan", {"model": "ResNet18", **change["request"]})
        assert status == 400 and envelope["error"]["code"] == "bad-request"
        assert err == f"error: {envelope['error']['message']}\n"
    else:
        assert err.startswith(f"error: {expected}")


@pytest.mark.parametrize(
    "command", ["plan", "explain", "layout", "bounds", "pareto", "verify", "dram"]
)
def test_infeasible_plan_is_one_error_line_and_exit_2(command, capsys, tmp_path):
    # A 16x16 kernel over 2048 channels: no tiling of it fits 1 kB of 32-bit data.
    big = {"kind": "CV", "name": "big", "in_h": 64, "in_w": 64, "in_c": 2048,
           "f_h": 16, "f_w": 16, "num_filters": 64, "stride": 1, "padding": 0}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "Big", "layers": [big]}))
    assert main([command, str(path), "--glb", "1", "--width", "32"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: Big: ") and "feasible" in err


@pytest.mark.parametrize(
    ("flags", "expected"),
    [
        (["--glb", "0"], "invalid AcceleratorSpec: glb_bytes must be positive"),
        (["--glb", "4"], "total_bytes must exceed the 4096-byte ofmap buffer"),
        (["--models", "Foo"], "unknown model 'Foo'"),
    ],
    ids=["glb-0", "glb-below-baselines", "unknown-model"],
)
def test_bench_serve_rejects_what_the_daemon_would(flags, expected, capsys, tmp_path):
    out_file = tmp_path / "BENCH_serve.json"
    assert main(["bench", "serve", *flags, "--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {expected}")
    assert not out_file.exists()  # no daemon booted, no request sent
