"""Shared fixtures: representative layers and accelerator specs."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.arch import AcceleratorSpec, kib
from repro.nn import LayerKind, LayerSpec


@pytest.fixture(autouse=True, scope="session")
def _session_cache_dir(tmp_path_factory: pytest.TempPathFactory):
    """Keep the whole test session away from the user's real plan cache.

    Individual tests that need a pristine cache point ``REPRO_CACHE_DIR``
    at their own tmp dir on top of this.
    """
    from repro.experiments import cache

    previous = os.environ.get(cache.ENV_CACHE_DIR)
    os.environ[cache.ENV_CACHE_DIR] = str(
        tmp_path_factory.mktemp("session-plan-cache")
    )
    yield
    if previous is None:
        os.environ.pop(cache.ENV_CACHE_DIR, None)
    else:
        os.environ[cache.ENV_CACHE_DIR] = previous


@pytest.fixture(scope="session")
def repo_lint_report():
    """One in-process ``repro lint`` run over ``src/repro``.

    Linting the whole tree takes seconds, so every test that asserts on
    the repository's own findings shares this report.
    """
    from repro.analysis import analyze_paths

    repo_root = Path(__file__).resolve().parent.parent
    return analyze_paths([repo_root / "src" / "repro"], root=repo_root)


@pytest.fixture
def spec64() -> AcceleratorSpec:
    """The paper's accelerator at the smallest GLB (64 kB)."""
    return AcceleratorSpec(glb_bytes=kib(64))


@pytest.fixture
def spec1m() -> AcceleratorSpec:
    """The paper's accelerator at the largest GLB (1 MB)."""
    return AcceleratorSpec(glb_bytes=kib(1024))


@pytest.fixture
def conv_layer() -> LayerSpec:
    """A mid-size 3×3 convolution (ResNet18 conv2 shape)."""
    return LayerSpec(
        name="conv",
        kind=LayerKind.CONV,
        in_h=56,
        in_w=56,
        in_c=64,
        f_h=3,
        f_w=3,
        num_filters=64,
        stride=1,
        padding=1,
    )


@pytest.fixture
def dw_layer() -> LayerSpec:
    """A depth-wise 3×3 convolution (MobileNet dw2 shape)."""
    return LayerSpec(
        name="dw",
        kind=LayerKind.DEPTHWISE,
        in_h=112,
        in_w=112,
        in_c=64,
        f_h=3,
        f_w=3,
        num_filters=1,
        stride=2,
        padding=1,
    )


@pytest.fixture
def pw_layer() -> LayerSpec:
    """A 1×1 point-wise convolution."""
    return LayerSpec(
        name="pw",
        kind=LayerKind.POINTWISE,
        in_h=28,
        in_w=28,
        in_c=128,
        f_h=1,
        f_w=1,
        num_filters=256,
    )


@pytest.fixture
def fc_layer() -> LayerSpec:
    """A classifier FC layer."""
    return LayerSpec(
        name="fc",
        kind=LayerKind.FC,
        in_h=1,
        in_w=1,
        in_c=512,
        f_h=1,
        f_w=1,
        num_filters=1000,
    )


@pytest.fixture
def small_conv() -> LayerSpec:
    """A tiny convolution whose numbers are easy to compute by hand."""
    return LayerSpec(
        name="tiny",
        kind=LayerKind.CONV,
        in_h=8,
        in_w=8,
        in_c=4,
        f_h=3,
        f_w=3,
        num_filters=6,
        stride=1,
        padding=1,
    )
