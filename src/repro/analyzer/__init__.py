"""Memory-management analyzer: Algorithm 1, plans and inter-layer reuse."""

from .algorithm1 import select_policy
from .export import load_plan_dict, plan_to_dict, save_plan
from .interlayer import apply_opportunistic_interlayer, plan_chain_with_interlayer
from .objectives import Objective
from .pareto import ParetoPoint, pareto_frontier, plan_weighted
from .plan import (
    ExecutionPlan,
    LayerAssignment,
    make_assignment,
    required_memory_elems,
    transformed_schedule,
)
from .planner import (
    best_homogeneous,
    plan_heterogeneous,
    plan_homogeneous,
    plan_named_only,
)

__all__ = [
    "Objective",
    "select_policy",
    "ExecutionPlan",
    "LayerAssignment",
    "make_assignment",
    "required_memory_elems",
    "transformed_schedule",
    "plan_heterogeneous",
    "plan_homogeneous",
    "best_homogeneous",
    "plan_named_only",
    "plan_chain_with_interlayer",
    "apply_opportunistic_interlayer",
    "plan_to_dict",
    "save_plan",
    "load_plan_dict",
    "ParetoPoint",
    "pareto_frontier",
    "plan_weighted",
]
