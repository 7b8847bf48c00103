"""fogsched: deterministic multi-fog/cloud resource-allocation simulator."""

__version__ = "0.1.0"

from .topology import (EnvConfig, ResourceGraph, NodeId, build_graph,
                       hop_distance, nodes_within_hops, shortest_path)
from .workload import (Application, Task, TaskEdge, WorkloadConfig,
                       generate_workload, load_application, validate_dag)
from .ordering import (ProcessQueue, Weights, critical_value,
                       mean_critical_value, normalize_makespan,
                       normalize_priority, normalize_resource, order_tasks)
from .placement import (Envelope, LevelLog, Placement, ResourceMatrix,
                        herafc_place, map_level_edges, place_levels, reset_rm,
                        try_deploy)
from .objective import (ObjectiveBreakdown, ServerAssignment, SingleFogModel,
                        check_constraints, check_single_fog, eval_mfc,
                        eval_single_fog, kappa_floor)
from .oracle import (OracleLimits, OracleResult, compare_with_heuristic,
                     exhaustive_place)
from .simkit import (ExperimentConfig, FluctuationConfig, MetricsReport,
                     apply_fluctuation, baseline_cloud_first, baseline_order,
                     run_experiment, run_replication, time_algorithms)
