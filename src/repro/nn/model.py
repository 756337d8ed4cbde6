"""A model is an ordered list of layers executed layer by layer.

The paper executes networks layer by layer with residual connections
serialized (§4), so the execution order is a flat sequence.  Branching
topologies (inception modules) are flattened by the builder; each layer's
:class:`~repro.nn.layer.LayerSpec` carries its own input shape, so no
connectivity graph is required for the memory-management analysis.

For inter-layer reuse (§5.4) the analyzer needs to know whether consecutive
layers in the execution order form a *producer→consumer* pair (the ofmap of
layer *i* is exactly the ifmap of layer *i+1*).  :meth:`Model.feeds_next`
detects that by shape matching, which is precise for the chain-structured
parts of the zoo models and conservatively false across branch boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..arch.bounds import MAX_MODEL_LAYERS
from .layer import LayerKind, LayerSpec


@dataclass(frozen=True)
class Model:
    """An ordered collection of layers with a name.

    Attributes
    ----------
    name:
        Model name (e.g. ``"ResNet18"``).
    layers:
        Layers in execution order.
    sequential_pairs:
        Indices ``i`` such that layer ``i`` feeds layer ``i+1`` directly
        (used by the inter-layer-reuse analysis).  Computed by the builder;
        if empty, :meth:`feeds_next` falls back to shape matching.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    sequential_pairs: frozenset[int] = field(default_factory=frozenset)
    #: True when ``sequential_pairs`` is authoritative (builder-produced);
    #: False for hand-assembled models, where :meth:`feeds_next` falls back
    #: to shape matching.
    explicit_pairs: bool = False

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"{self.name}: model has no layers")
        if len(self.layers) > MAX_MODEL_LAYERS:
            raise ValueError(
                f"{self.name}: {len(self.layers)} layers exceed the supported "
                f"bound MAX_MODEL_LAYERS={MAX_MODEL_LAYERS}"
            )
        names = [layer.name for layer in self.layers]
        dupes = [n for n, c in Counter(names).items() if c > 1]
        if dupes:
            raise ValueError(f"{self.name}: duplicate layer names {dupes}")
        bad = [i for i in self.sequential_pairs if not 0 <= i < len(self.layers) - 1]
        if bad:
            raise ValueError(f"{self.name}: sequential_pairs out of range {bad}")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __getitem__(self, index: int) -> LayerSpec:
        return self.layers[index]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer_kinds(self) -> tuple[LayerKind, ...]:
        """Distinct layer kinds present, in Table 2 declaration order."""
        seen: dict[LayerKind, None] = {}
        for layer in self.layers:
            seen.setdefault(layer.kind, None)
        order = [
            LayerKind.CONV,
            LayerKind.DEPTHWISE,
            LayerKind.POINTWISE,
            LayerKind.FC,
            LayerKind.PROJECTION,
        ]
        return tuple(k for k in order if k in seen)

    def kind_histogram(self) -> dict[LayerKind, int]:
        """Number of layers of each kind."""
        hist: Counter[LayerKind] = Counter(layer.kind for layer in self.layers)
        return dict(hist)

    def feeds_next(self, index: int) -> bool:
        """Whether layer ``index`` directly produces the ifmap of ``index+1``.

        If the builder recorded explicit sequential pairs, trust those;
        otherwise fall back to an exact output→input shape match.
        """
        if index < 0 or index >= len(self.layers) - 1:
            return False
        if self.explicit_pairs:
            return index in self.sequential_pairs
        producer, consumer = self.layers[index], self.layers[index + 1]
        return (
            producer.out_h == consumer.in_h
            and producer.out_w == consumer.in_w
            and producer.out_c == consumer.in_c
        )

    @property
    def total_macs(self) -> int:
        """MACs for one inference at batch 1."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weight_elems(self) -> int:
        """Total model weight footprint in elements."""
        return sum(layer.filter_elems for layer in self.layers)

    def find(self, name: str) -> LayerSpec:
        """Look up a layer by name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"{self.name}: no layer named {name!r}")


def make_model(
    name: str,
    layers: Sequence[LayerSpec],
    sequential_pairs: Sequence[int] | None = None,
) -> Model:
    """Convenience constructor accepting plain sequences.

    Pass ``sequential_pairs=None`` for a hand-assembled model (producer→
    consumer detection falls back to shape matching); pass a sequence —
    possibly empty — when the pairs are known exactly.
    """
    return Model(
        name=name,
        layers=tuple(layers),
        sequential_pairs=frozenset(sequential_pairs or ()),
        explicit_pairs=sequential_pairs is not None,
    )
