"""Hypothesis strategies shared by the property tests and the corner harness."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.nn import LayerKind, LayerSpec


@st.composite
def layers(
    draw,
    max_hw: int = 64,
    max_c: int = 64,
    max_fc: int = 512,
    kernels: tuple[int, ...] = (1, 3, 5),
    strides: tuple[int, ...] = (1, 2),
) -> LayerSpec:
    """Random but valid conv/dw/pw/fc layers: extents in ``[8, max_hw]``,
    conv channels in ``[1, max_c]``, FC channels in ``[1, max_fc]``."""
    kind = draw(st.sampled_from(
        [LayerKind.CONV, LayerKind.DEPTHWISE, LayerKind.POINTWISE, LayerKind.FC]
    ))
    if kind is LayerKind.FC:
        return LayerSpec(
            name="l",
            kind=kind,
            in_h=1,
            in_w=1,
            in_c=draw(st.integers(1, max_fc)),
            f_h=1,
            f_w=1,
            num_filters=draw(st.integers(1, max_fc)),
        )
    in_hw = draw(st.integers(8, max_hw))
    in_c = draw(st.integers(1, max_c))
    if kind is LayerKind.POINTWISE:
        f = 1
        pad = 0
    else:
        f = draw(st.sampled_from([k for k in kernels if k <= in_hw]))
        pad = draw(st.integers(0, (f - 1) // 2))
    stride = draw(st.sampled_from(strides))
    num_filters = 1 if kind is LayerKind.DEPTHWISE else draw(st.integers(1, max_c))
    return LayerSpec(
        name="l",
        kind=kind,
        in_h=in_hw,
        in_w=in_hw,
        in_c=in_c,
        f_h=f,
        f_w=f,
        num_filters=num_filters,
        stride=stride,
        padding=pad,
    )
