"""GraphX-like BSP execution substrate with a simulated cluster cost model."""

from .cluster import STORAGE_BANDWIDTH_BYTES, ClusterConfig, paper_cluster
from .cost_model import CostModel, CostParameters, SimulationReport, SuperstepRecord
from .messaging import ArrayMessageKernel, TripletArrays
from .parallel import ParallelPregelExecutor, engine_stats, parallel_supported
from .partitioned_graph import PartitionedGraph
from .pregel import PregelResult, aggregate_messages, pregel
from .routing import RoutingTable
from .shm_registry import ShmRegistry, shared_memory_available

__all__ = [
    "ClusterConfig",
    "paper_cluster",
    "STORAGE_BANDWIDTH_BYTES",
    "CostModel",
    "CostParameters",
    "SimulationReport",
    "SuperstepRecord",
    "ArrayMessageKernel",
    "PartitionedGraph",
    "TripletArrays",
    "ParallelPregelExecutor",
    "PregelResult",
    "RoutingTable",
    "ShmRegistry",
    "aggregate_messages",
    "engine_stats",
    "parallel_supported",
    "pregel",
    "shared_memory_available",
]
