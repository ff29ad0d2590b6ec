"""The ``reference`` backend: the paper-faithful Pregel simulator.

This backend is a thin adapter around
:func:`repro.algorithms.registry.run_algorithm` (and
:func:`repro.algorithms.degrees.degree_count`), so its results carry the
full cost-model :class:`~repro.engine.cost_model.SimulationReport` the
evaluation correlates with the partitioning metrics.  When handed a bare
:class:`~repro.core.graph.Graph` it partitions it trivially (one
partition), which keeps the simulated semantics while making the backend
interchangeable with backends that ignore partitioning.
"""

from __future__ import annotations

from typing import List, Optional

from ..algorithms.result import AlgorithmResult
from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.partitioned_graph import PartitionedGraph
from .base import Backend, GraphLike

__all__ = ["ReferenceBackend"]

#: Partitioner used when the caller supplies a bare Graph.
_DEFAULT_STRATEGY = "1D"


class ReferenceBackend(Backend):
    """Pregel (BSP) simulation on the placement, with the calibrated cluster cost model."""

    name = "reference"
    uses_partitioning = True

    def _as_partitioned(self, graph: GraphLike) -> PartitionedGraph:
        # Duck-typed: repro.ooc.ShardedGraph carries partitions/routing/
        # membership without subclassing PartitionedGraph, and must not be
        # re-partitioned (that would materialise its mmapped edges).
        if isinstance(graph, PartitionedGraph) or hasattr(graph, "partitions"):
            return graph
        return PartitionedGraph.partition(graph, _DEFAULT_STRATEGY, 1)

    def _run(
        self,
        algorithm: str,
        graph: GraphLike,
        num_iterations: int = 10,
        landmarks: Optional[List[int]] = None,
        landmark_seed: int = 7,
        cluster: Optional[ClusterConfig] = None,
        cost_parameters: Optional[CostParameters] = None,
        engine_workers: Optional[int] = None,
    ) -> AlgorithmResult:
        from ..algorithms.registry import run_reference_algorithm

        return run_reference_algorithm(
            algorithm,
            self._as_partitioned(graph),
            num_iterations=num_iterations,
            landmarks=landmarks,
            landmark_seed=landmark_seed,
            cluster=cluster,
            cost_parameters=cost_parameters,
            engine_workers=engine_workers,
        )

    def _degrees(self, graph: GraphLike, direction: str = "out") -> AlgorithmResult:
        from ..algorithms.degrees import degree_count

        return degree_count(self._as_partitioned(graph), direction=direction)
