"""The partitioning-quality metrics of Section 3.1 of the paper.

Given an :class:`~repro.partitioning.base.EdgePartitionAssignment` this
module computes:

* **Balance** — edges in the largest partition over the mean edges per
  partition.
* **NonCut** — vertices that live in exactly one partition.
* **Cut** — vertices replicated into two or more partitions.
* **CommCost** — total number of copies of cut vertices, i.e. the number of
  per-superstep synchronisation messages of a BSP computation that keeps
  fixed-size state on every vertex.
* **PartStDev** — standard deviation of the edges-per-partition counts.

plus the auxiliary quantities used in the appendix and by the engine:
replication factor, vertices-to-same / vertices-to-other (the alternative
breakdown of the replica count mentioned in Section 3.1), and
largest-partition ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..partitioning.base import EdgePartitionAssignment
from ..partitioning.membership import master_partition_array

__all__ = [
    "PartitioningMetrics",
    "compute_metrics",
    "master_partition_array",
    "METRIC_NAMES",
]

#: The metric columns reported in Tables 2-3, in paper order.
METRIC_NAMES = ["balance", "non_cut", "cut", "comm_cost", "part_stdev"]


@dataclass(frozen=True)
class PartitioningMetrics:
    """All partitioning metrics for one (graph, strategy, #partitions) triple."""

    strategy: str
    num_partitions: int
    num_vertices: int
    num_edges: int
    balance: float
    non_cut: int
    cut: int
    comm_cost: int
    part_stdev: float
    total_replicas: int
    replication_factor: float
    vertices_to_same: int
    vertices_to_other: int
    max_partition_edges: int
    mean_partition_edges: float
    max_partition_vertices: int
    largest_edge_fraction: float
    largest_vertex_fraction: float

    def value(self, metric: str) -> float:
        """Look up a metric by its snake_case name (raises ``KeyError`` if unknown)."""
        if not hasattr(self, metric):
            raise KeyError(f"unknown metric {metric!r}")
        return float(getattr(self, metric))

    def as_row(self) -> Dict[str, object]:
        """Return the Table 2/3 columns as a flat dict."""
        return {
            "partitioner": self.strategy,
            "balance": round(self.balance, 2),
            "non_cut": self.non_cut,
            "cut": self.cut,
            "comm_cost": self.comm_cost,
            "part_stdev": round(self.part_stdev, 2),
        }


def compute_metrics(assignment: EdgePartitionAssignment) -> PartitioningMetrics:
    """Compute every partitioning metric for ``assignment``.

    All replication accounting runs on the flat arrays of
    :meth:`~repro.partitioning.base.EdgePartitionAssignment.membership`
    (``bincount`` + boolean masks); no per-vertex Python loop is involved.
    ``tests/pregel_oracles.py`` keeps the seed per-vertex dict walk it is
    held equal to.
    """
    num_partitions = assignment.num_partitions
    graph = assignment.graph

    edges_per_partition = assignment.edges_per_partition()
    num_edges = int(edges_per_partition.sum())
    mean_edges = num_edges / num_partitions if num_partitions else 0.0
    max_edges = int(edges_per_partition.max()) if edges_per_partition.size else 0
    balance = (max_edges / mean_edges) if mean_edges > 0 else 1.0
    part_stdev = float(np.std(edges_per_partition)) if edges_per_partition.size else 0.0

    membership = assignment.membership()
    counts = membership.counts
    total_replicas = int(counts.sum())
    non_cut = int((counts == 1).sum())
    cut = int(counts.size - non_cut)
    comm_cost = int(counts[counts > 1].sum())
    vertices_per_partition = membership.vertices_per_partition()
    # A replica sits on its vertex's master partition iff its pair row
    # matches the per-vertex master expanded over the replica segments.
    vertices_to_same = int(
        (membership.pair_partition == np.repeat(membership.masters, counts)).sum()
    )
    vertices_to_other = total_replicas - vertices_to_same

    placed_vertices = non_cut + cut
    replication_factor = (total_replicas / placed_vertices) if placed_vertices else 0.0
    max_partition_vertices = int(vertices_per_partition.max()) if num_partitions else 0
    largest_edge_fraction = (max_edges / num_edges) if num_edges else 0.0
    largest_vertex_fraction = (
        max_partition_vertices / placed_vertices if placed_vertices else 0.0
    )

    return PartitioningMetrics(
        strategy=assignment.strategy_name,
        num_partitions=num_partitions,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        balance=float(balance),
        non_cut=non_cut,
        cut=cut,
        comm_cost=comm_cost,
        part_stdev=part_stdev,
        total_replicas=total_replicas,
        replication_factor=float(replication_factor),
        vertices_to_same=vertices_to_same,
        vertices_to_other=vertices_to_other,
        max_partition_edges=max_edges,
        mean_partition_edges=float(mean_edges),
        max_partition_vertices=max_partition_vertices,
        largest_edge_fraction=float(largest_edge_fraction),
        largest_vertex_fraction=float(largest_vertex_fraction),
    )
