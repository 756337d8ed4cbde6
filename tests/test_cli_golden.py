"""Golden digests of the CLI's stdout for valid input.

Each case runs one ``repro`` command in-process and compares the SHA-256
of its stdout with ``golden/cli_stdout.json``: ``plan`` (text; it has no
JSON format) and ``explain`` (text and ``--format json``) over a few
spec, scheme and objective variations and one JSON model file, plus one
``compare`` and one ``baseline`` run.  An intentional change
regenerates the file in the same change
(``python tests/test_cli_golden.py``) and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.nn import save_model
from repro.nn.zoo import get_model

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"

#: Stands for the path of a JSON model file holding the zoo's MobileNet.
MODEL_FILE = "<mobilenet.json>"

VARIANTS: tuple[tuple[str, ...], ...] = (
    ("ResNet18", "--glb", "64"),
    ("MobileNet", "--glb", "256", "--interlayer"),
    ("ResNet18", "--scheme", "hom(p1)"),
    ("ResNet18", "--objective", "latency"),
    ("ResNet18", "--width", "16"),
    (MODEL_FILE, "--glb", "64"),
)

CASES: list[tuple[str, ...]] = (
    [("plan", *v) for v in VARIANTS]
    + [("explain", *v) for v in VARIANTS]
    + [("explain", *v, "--format", "json") for v in VARIANTS]
    + [("compare", "ResNet18", "--glb", "64"), ("baseline", "ResNet18", "--glb", "64")]
)


def case_id(args: tuple[str, ...]) -> str:
    return " ".join(args)


def stdout_digest(args: tuple[str, ...], model_file: Path) -> str:
    """SHA-256 of the stdout of ``repro <args>``."""
    argv = [str(model_file) if a == MODEL_FILE else a for a in args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def write_model_file(directory: Path) -> Path:
    path = directory / "mobilenet.json"
    save_model(get_model("MobileNet"), path)
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return write_model_file(tmp_path_factory.mktemp("cli-golden"))


@pytest.mark.parametrize("args", CASES, ids=[case_id(c) for c in CASES])
def test_cli_stdout_matches_golden(args, model_file):
    expected = json.loads(GOLDEN.read_text())[case_id(args)]
    assert stdout_digest(args, model_file) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = write_model_file(Path(tmp))
        golden = {case_id(c): stdout_digest(c, path) for c in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
