"""The paper's contribution: concurrency-aware scheduling and rerooting."""

from .schedule import (
    matrix_updates,
    operation_for_node,
    postorder_operations,
    reverse_levelorder_operations,
)
from .opsets import (
    build_operation_sets,
    count_operation_sets,
    level_schedule,
    min_operation_sets,
    set_index_by_node,
)
from .reroot_opt import (
    RerootResult,
    edge_rooting_heights,
    optimal_reroot_exhaustive,
    optimal_reroot_fast,
)
from .bounds import (
    balanced_sets,
    pectinate_sets,
    rerooted_pectinate_sets,
    rerooted_speedup_interval,
    speedup_balanced,
    speedup_pectinate_rerooted,
    theoretical_speedup,
    tree_theoretical_speedup,
)
from .planner import (
    ExecutionPlan,
    GradientPlan,
    create_instance,
    execute_gradient_plan,
    execute_plan,
    make_gradient_plan,
    make_plan,
)
from .incremental import (
    dirty_nodes,
    incremental_operation_sets,
    incremental_plan,
)

__all__ = [
    "operation_for_node",
    "postorder_operations",
    "reverse_levelorder_operations",
    "matrix_updates",
    "build_operation_sets",
    "count_operation_sets",
    "level_schedule",
    "min_operation_sets",
    "set_index_by_node",
    "RerootResult",
    "optimal_reroot_exhaustive",
    "optimal_reroot_fast",
    "edge_rooting_heights",
    "balanced_sets",
    "pectinate_sets",
    "rerooted_pectinate_sets",
    "theoretical_speedup",
    "speedup_balanced",
    "speedup_pectinate_rerooted",
    "rerooted_speedup_interval",
    "tree_theoretical_speedup",
    "ExecutionPlan",
    "GradientPlan",
    "make_gradient_plan",
    "execute_gradient_plan",
    "dirty_nodes",
    "incremental_operation_sets",
    "incremental_plan",
    "make_plan",
    "create_instance",
    "execute_plan",
]
