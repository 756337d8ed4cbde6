"""Layer description: the hyperparameters of Table 1 in the paper.

A :class:`LayerSpec` is self-contained — it records its own input extents, so
models with branches (GoogLeNet inception modules) or residual connections
(ResNet18, serialized per the paper's layer-by-layer execution) are simply a
flat list of layers, each knowing the shapes it consumes and produces.

Element counts are the currency of the whole library: the policies and the
estimators reason in elements and convert to bytes only through an
:class:`~repro.arch.AcceleratorSpec`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..arch.bounds import (
    MAX_CHANNELS,
    MAX_FEATURE_DIM,
    MAX_KERNEL_DIM,
    MAX_LAYER_MACS,
    MAX_PADDING,
    MAX_STRIDE,
    MAX_TENSOR_ELEMS,
)


class LayerKind(enum.Enum):
    """Layer types appearing in Table 2 of the paper."""

    CONV = "CV"  #: standard convolution
    DEPTHWISE = "DW"  #: depth-wise convolution (one 2-D filter per channel)
    POINTWISE = "PW"  #: 1×1 convolution
    FC = "FC"  #: fully connected
    PROJECTION = "PL"  #: 1×1 projection shortcut (ResNet downsample)

    @property
    def is_depthwise(self) -> bool:
        return self is LayerKind.DEPTHWISE


def conv_out_extent(in_extent: int, filt: int, stride: int, pad: int) -> int:
    """Output spatial extent of a strided, padded convolution."""
    out = (in_extent + 2 * pad - filt) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output: in={in_extent} f={filt} "
            f"s={stride} p={pad}"
        )
    return out


@dataclass(frozen=True)
class LayerSpec:
    """One fully-connected or convolutional layer (Table 1 hyperparameters).

    Attributes
    ----------
    name:
        Unique layer name within its model (e.g. ``"conv2_1a"``).
    kind:
        Layer type; see :class:`LayerKind`.
    in_h, in_w:
        ifmap height / width (``I_H``, ``I_W``), *unpadded*.
    in_c:
        Number of ifmap (= filter) channels (``C_I``).
    f_h, f_w:
        Filter height / width (``F_H``, ``F_W``).
    num_filters:
        Number of 3-D filters (``F#``).  For depth-wise layers the paper
        treats the layer as having a *single* grouped filter of shape
        ``F_H×F_W×C_I``; construct those with ``num_filters=1`` (the
        constructor enforces it) and the output channel count equals
        ``in_c``.
    stride:
        Convolution stride (``S``), identical in both spatial dimensions.
    padding:
        Symmetric zero padding (``P``) added on every spatial border.
    """

    name: str
    kind: LayerKind
    in_h: int
    in_w: int
    in_c: int
    f_h: int
    f_w: int
    num_filters: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        for field_name in ("in_h", "in_w", "in_c", "f_h", "f_w", "num_filters", "stride"):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValueError(f"{self.name}: {field_name} must be positive, got {value}")
        if self.padding < 0:
            raise ValueError(f"{self.name}: padding must be non-negative")
        if self.f_h > self.in_h + 2 * self.padding or self.f_w > self.in_w + 2 * self.padding:
            raise ValueError(f"{self.name}: filter larger than padded input")
        if self.kind is LayerKind.DEPTHWISE and self.num_filters != 1:
            raise ValueError(
                f"{self.name}: depth-wise layers are modeled as a single "
                f"grouped filter (paper §5.1); got num_filters={self.num_filters}"
            )
        if self.kind in (LayerKind.POINTWISE, LayerKind.PROJECTION, LayerKind.FC):
            if self.f_h != 1 or self.f_w != 1:
                raise ValueError(f"{self.name}: {self.kind.value} layers must have 1×1 filters")
        if self.kind is LayerKind.FC and (self.in_h != 1 or self.in_w != 1):
            raise ValueError(f"{self.name}: FC layers must have 1×1 spatial input")
        # Trigger output-shape validation eagerly so bad specs fail fast.
        conv_out_extent(self.in_h, self.f_h, self.stride, self.padding)
        conv_out_extent(self.in_w, self.f_w, self.stride, self.padding)
        # Supported-spec-space ceilings (repro.arch.bounds): the
        # planner's int64 closed forms are tested only up to them, so an
        # oversized layer must fail loudly here rather than wrap silently
        # there.
        for field_name, cap in (
            ("in_h", MAX_FEATURE_DIM),
            ("in_w", MAX_FEATURE_DIM),
            ("in_c", MAX_CHANNELS),
            ("f_h", MAX_KERNEL_DIM),
            ("f_w", MAX_KERNEL_DIM),
            ("num_filters", MAX_CHANNELS),
            ("stride", MAX_STRIDE),
            ("padding", MAX_PADDING),
        ):
            value = getattr(self, field_name)
            if value > cap:
                raise ValueError(
                    f"{self.name}: {field_name} must be at most {cap}, got {value}"
                )
        largest_tensor = max(
            self.ifmap_padded_elems, self.filter_elems, self.ofmap_elems
        )
        if largest_tensor > MAX_TENSOR_ELEMS:
            raise ValueError(
                f"{self.name}: tensor footprint {largest_tensor} elems exceeds "
                f"the supported bound {MAX_TENSOR_ELEMS}"
            )
        if self.macs > MAX_LAYER_MACS:
            raise ValueError(
                f"{self.name}: {self.macs} MACs exceed the supported bound "
                f"{MAX_LAYER_MACS}"
            )

    @property
    def shape(self) -> LayerSpec:
        """The layer's shape: a nameless twin equal in every other field.

        Interned, so every layer of one shape returns the same object.
        Nothing the planner computes depends on the name, so the planning
        core plans on the shape and its memos are shared by all layers of
        that shape.
        """
        shape = _SHAPES.get(self)
        if shape is None:
            if len(_SHAPES) > _SHAPES_MAX:
                _SHAPES.clear()
            twin = replace(self, name="") if self.name else self
            shape = _SHAPES.setdefault(twin, twin)
            _SHAPES[self] = shape
        return shape

    # ------------------------------------------------------------------
    # Derived shapes
    # ------------------------------------------------------------------

    @property
    def out_h(self) -> int:
        """ofmap height (``O_H``)."""
        return conv_out_extent(self.in_h, self.f_h, self.stride, self.padding)

    @property
    def out_w(self) -> int:
        """ofmap width (``O_W``)."""
        return conv_out_extent(self.in_w, self.f_w, self.stride, self.padding)

    @property
    def out_c(self) -> int:
        """ofmap channels (``C_O``): ``F#`` for dense layers, ``C_I`` for DW."""
        return self.in_c if self.kind.is_depthwise else self.num_filters

    @property
    def padded_h(self) -> int:
        """ifmap height including zero padding."""
        return self.in_h + 2 * self.padding

    @property
    def padded_w(self) -> int:
        """ifmap width including zero padding."""
        return self.in_w + 2 * self.padding

    # ------------------------------------------------------------------
    # Element counts
    # ------------------------------------------------------------------

    @property
    def ifmap_elems(self) -> int:
        """ifmap footprint in elements (unpadded; used for residency)."""
        return self.in_h * self.in_w * self.in_c

    @property
    def ifmap_padded_elems(self) -> int:
        """ifmap footprint in elements including padding (used for traffic)."""
        return self.padded_h * self.padded_w * self.in_c

    @property
    def filter_elems(self) -> int:
        """Total filter footprint in elements."""
        if self.kind.is_depthwise:
            return self.f_h * self.f_w * self.in_c
        return self.f_h * self.f_w * self.in_c * self.num_filters

    @property
    def filter_elems_per_filter(self) -> int:
        """Elements of a single 3-D filter (the whole grouped filter for DW)."""
        return self.f_h * self.f_w * self.in_c

    @property
    def ofmap_elems(self) -> int:
        """ofmap footprint in elements."""
        return self.out_h * self.out_w * self.out_c

    @property
    def total_elems(self) -> int:
        """Whole-layer working set (intra-layer reuse residency)."""
        return self.ifmap_elems + self.filter_elems + self.ofmap_elems

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations needed to compute the layer."""
        if self.kind.is_depthwise:
            return self.out_h * self.out_w * self.in_c * self.f_h * self.f_w
        return self.out_h * self.out_w * self.out_c * self.f_h * self.f_w * self.in_c

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.name}[{self.kind.value}] "
            f"{self.in_h}x{self.in_w}x{self.in_c} "
            f"-> {self.out_h}x{self.out_w}x{self.out_c} "
            f"(f={self.f_h}x{self.f_w}, n={self.num_filters}, s={self.stride}, p={self.padding})"
        )


#: Intern table of layer shapes: every layer seen, named or not, maps to
#: the one nameless twin of its shape (:attr:`LayerSpec.shape`).  Same
#: discipline as the planner memos: idempotent puts of deterministic
#: values and a wholesale reset above the cap (after a reset, equal
#: shapes are still equal, only no longer the same object).
_SHAPES: dict[LayerSpec, LayerSpec] = {}
_SHAPES_MAX = 65536
