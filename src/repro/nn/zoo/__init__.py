"""Model zoo: the six CNNs evaluated in the paper (Table 2)."""

from .efficientnetb0 import build_efficientnetb0
from .googlenet import build_googlenet
from .mnasnet import build_mnasnet
from .mobilenet import build_mobilenet
from .mobilenetv2 import build_mobilenetv2
from .extended import (
    build_alexnet,
    build_resnet34,
    build_resnet50,
    build_squeezenet,
    build_vgg16,
)
from .registry import (
    ALL_MODEL_NAMES,
    PAPER_LAYER_COUNTS,
    PAPER_MODEL_NAMES,
    find_model_name,
    get_model,
    paper_models,
)
from .resnet18 import build_resnet18

__all__ = [
    "build_efficientnetb0",
    "build_googlenet",
    "build_mnasnet",
    "build_mobilenet",
    "build_mobilenetv2",
    "build_resnet18",
    "get_model",
    "find_model_name",
    "paper_models",
    "PAPER_MODEL_NAMES",
    "PAPER_LAYER_COUNTS",
    "ALL_MODEL_NAMES",
    "build_alexnet",
    "build_vgg16",
    "build_squeezenet",
    "build_resnet34",
    "build_resnet50",
]
