"""Human-readable model summaries (torchsummary-style).

Pure-text companion to :mod:`repro.nn.stats`: one line per layer with
shapes, parameters, MACs and the memory breakdown at a given data width,
plus model totals, for notebooks and interactive use (the CLI's
``inspect`` command prints its own per-layer table).
"""

from __future__ import annotations

from ..arch.spec import AcceleratorSpec
from ..arch.units import to_kib
from .model import Model
from .stats import layer_breakdown


def summarize(model: Model, spec: AcceleratorSpec | None = None) -> str:
    """Render a layer-by-layer summary of the model."""
    spec = spec or AcceleratorSpec()
    header = (
        f"{'#':>3} {'layer':<18} {'kind':<4} {'input':<13} {'output':<13} "
        f"{'params':>10} {'MACs':>12} {'mem kB':>8}"
    )
    lines = [
        f"{model.name}: {model.num_layers} layers, "
        f"{model.total_weight_elems / 1e6:.2f}M params, "
        f"{model.total_macs / 1e9:.3f} GMACs "
        f"(at {spec.data_width_bits}-bit)",
        header,
        "-" * len(header),
    ]
    for i, layer in enumerate(model.layers, start=1):
        breakdown = layer_breakdown(layer, spec)
        lines.append(
            f"{i:>3} {layer.name:<18.18} {layer.kind.value:<4} "
            f"{layer.in_h}x{layer.in_w}x{layer.in_c:<6} "
            f"{layer.out_h}x{layer.out_w}x{layer.out_c:<6} "
            f"{layer.filter_elems:>10,} {layer.macs:>12,} "
            f"{to_kib(breakdown.total_bytes):>8.1f}"
        )
    peak = max(
        layer_breakdown(layer, spec).total_bytes for layer in model.layers
    )
    lines.append("-" * len(header))
    lines.append(
        f"peak single-layer working set: {to_kib(peak):.1f} kB; "
        f"sequential pairs: "
        f"{sum(1 for i in range(len(model.layers) - 1) if model.feeds_next(i))}"
        f"/{len(model.layers) - 1}"
    )
    return "\n".join(lines)
