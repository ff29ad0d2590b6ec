"""A graph distributed over edge partitions, ready for BSP execution."""

from __future__ import annotations

from typing import Optional, Union

from ..core.graph import Graph
from ..core.properties import estimated_size_bytes
from ..errors import EngineError
from ..metrics.partition_metrics import PartitioningMetrics, compute_metrics
from ..partitioning.base import EdgePartitionAssignment, PartitionStrategy
from ..partitioning.membership import CompiledPlacement
from ..partitioning.registry import make_partitioner
from .messaging import TripletArrays
from .routing import RoutingTable

__all__ = ["PartitionedGraph"]


class PartitionedGraph:
    """The distributed representation GraphX builds from an edge placement.

    Holds the partition-major triplet arrays, the vertex routing table and
    the partitioning metrics of Section 3.1, and is the input type of every
    algorithm in :mod:`repro.algorithms`.
    """

    def __init__(self, assignment: EdgePartitionAssignment) -> None:
        self.assignment = assignment
        self.graph = assignment.graph
        self.num_partitions = assignment.num_partitions
        self.strategy_name = assignment.strategy_name
        self._routing: Optional[RoutingTable] = None
        self._metrics: Optional[PartitioningMetrics] = None
        self._triplets: Optional[TripletArrays] = None

    # ------------------------------------------------------------------
    @classmethod
    def partition(
        cls,
        graph: Graph,
        strategy: Union[str, PartitionStrategy],
        num_partitions: int,
    ) -> "PartitionedGraph":
        """Partition ``graph`` with ``strategy`` into ``num_partitions`` parts.

        ``strategy`` may be a strategy instance or a registry name such as
        ``"2D"`` or ``"CRVC"``.
        """
        if isinstance(strategy, str):
            strategy = make_partitioner(strategy)
        if not isinstance(strategy, PartitionStrategy):
            raise EngineError(
                f"strategy must be a PartitionStrategy or name, got {type(strategy).__name__}"
            )
        assignment = strategy.assign(graph, num_partitions)
        return cls(assignment)

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> CompiledPlacement:
        """The placement grouped by partition (``edge_bounds`` /
        ``slot_bounds`` slices), as compiled for membership and triplets."""
        return self.assignment.compiled()

    @property
    def routing(self) -> RoutingTable:
        """The vertex routing table (built lazily, cached)."""
        if self._routing is None:
            self._routing = RoutingTable.from_assignment(self.assignment)
        return self._routing

    @property
    def metrics(self) -> PartitioningMetrics:
        """Partitioning metrics of Section 3.1 for this placement (cached)."""
        if self._metrics is None:
            self._metrics = compute_metrics(self.assignment)
        return self._metrics

    def triplets(self) -> TripletArrays:
        """Partition-major dense triplet arrays (built lazily, cached).

        The input representation of the engine: the compiled placement
        (shared with the membership) plus the vertex masters.
        """
        if self._triplets is None:
            self._triplets = TripletArrays.from_placement(self.graph.vertex_ids, self.partitions)
        return self._triplets

    @property
    def dataset_bytes(self) -> int:
        """Estimated on-disk size of the underlying edge list."""
        return estimated_size_bytes(self.graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedGraph(strategy={self.strategy_name!r}, "
            f"partitions={self.num_partitions}, edges={self.graph.num_edges})"
        )
