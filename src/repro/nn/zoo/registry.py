"""Registry of the six DL models studied in the paper (Table 2)."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from ..model import Model
from .efficientnetb0 import build_efficientnetb0
from .extended import (
    build_alexnet,
    build_resnet34,
    build_resnet50,
    build_squeezenet,
    build_vgg16,
)
from .googlenet import build_googlenet
from .mnasnet import build_mnasnet
from .mobilenet import build_mobilenet
from .mobilenetv2 import build_mobilenetv2
from .resnet18 import build_resnet18

#: Builders in Table 2 order.
_BUILDERS: dict[str, Callable[[], Model]] = {
    "EfficientNetB0": build_efficientnetb0,
    "GoogLeNet": build_googlenet,
    "MnasNet": build_mnasnet,
    "MobileNet": build_mobilenet,
    "MobileNetV2": build_mobilenetv2,
    "ResNet18": build_resnet18,
}

#: Model names in Table 2 order.
PAPER_MODEL_NAMES = tuple(_BUILDERS)

#: Extra networks beyond the paper's evaluation set.
_BUILDERS.update(
    {
        "AlexNet": build_alexnet,
        "VGG16": build_vgg16,
        "SqueezeNet": build_squeezenet,
        "ResNet34": build_resnet34,
        "ResNet50": build_resnet50,
    }
)

#: All registered model names (paper set first).
ALL_MODEL_NAMES = tuple(_BUILDERS)

_BY_LOWER_NAME = {name.lower(): name for name in ALL_MODEL_NAMES}

#: Expected layer counts from Table 2 (validated by the test suite).
PAPER_LAYER_COUNTS = {
    "EfficientNetB0": 82,
    "GoogLeNet": 64,
    "MnasNet": 53,
    "MobileNet": 28,
    "MobileNetV2": 53,
    "ResNet18": 21,
}


@lru_cache(maxsize=None)
def get_model(name: str, input_size: int | None = None) -> Model:
    """Return the (cached, immutable) zoo model with the given name.

    ``input_size`` overrides the builder's native resolution (all zoo
    builders parameterize it), enabling resolution sweeps.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    return builder() if input_size is None else builder(input_size=input_size)


def find_model_name(name: str) -> str | None:
    """The registered spelling of ``name``, matched case-insensitively
    (``"resnet18"`` -> ``"ResNet18"``); None when it is not in the zoo."""
    return _BY_LOWER_NAME.get(name.lower())


def paper_models() -> tuple[Model, ...]:
    """All six paper models in Table 2 order."""
    return tuple(get_model(name) for name in PAPER_MODEL_NAMES)
