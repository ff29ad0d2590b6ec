"""Vertex routing tables: where the master and the replicas of a vertex live.

GraphX keeps a routing table next to the vertex RDD describing which edge
partitions hold a copy of every vertex; the BSP engine uses it both to ship
aggregated messages to masters and to broadcast updated vertex state back
to replicas.  The number of those broadcasts is exactly the paper's
Communication Cost metric.

The table is array-native: it shares the CSR pair arrays of
:class:`~repro.partitioning.membership.VertexMembership` (from the
placement's one compile) and a vectorised master assignment, so
constructing it costs one hash pass instead of the seed implementation's
per-vertex dict build.  The engine reads it through
:meth:`RoutingTable.broadcast_plan`; the seed's dict-walking
constructor is the oracle ``tests/pregel_oracles.py`` holds it to.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..partitioning.base import EdgePartitionAssignment
from ..partitioning.membership import VertexMembership, master_partition_array
from .cluster import for_executor_map

__all__ = ["RoutingTable"]


class RoutingTable:
    """Replica locations and master assignment for every vertex."""

    def __init__(
        self,
        num_partitions: int,
        membership: VertexMembership,
        all_vertex_ids: np.ndarray,
    ) -> None:
        self.num_partitions = num_partitions
        self.membership = membership
        self._all_vertex_ids = np.asarray(all_vertex_ids, dtype=np.int64)
        #: Master partition of every placed vertex, aligned with
        #: ``membership.vertices`` (computed eagerly: it is the half of the
        #: table the seed implementation hashed vertex-by-vertex).
        self.master_of_placed = membership.masters
        self._sync_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._sync_remote: Optional[Tuple[bytes, np.ndarray]] = None

    @classmethod
    def from_assignment(cls, assignment: EdgePartitionAssignment) -> "RoutingTable":
        """Build the routing table implied by an edge partition assignment."""
        return cls(
            num_partitions=assignment.num_partitions,
            membership=assignment.membership(),
            all_vertex_ids=assignment.graph.vertex_ids,
        )

    def broadcast_plan(
        self, executor_of: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The replica broadcast of this placement in dense-index space.

        Returns ``(offsets, partitions, remote)``: a CSR over the dense
        vertex index (position in the graph's sorted vertex ids) of every
        vertex's non-master replica partitions, and per vertex how many of
        them sit on another executor than its master.  The CSR is built
        once per placement; ``remote`` depends on the cluster only through
        ``executor_of`` and is kept for the last executor map.
        """
        membership = self.membership
        if self._sync_csr is None:
            keep = membership.pair_partition != np.repeat(
                self.master_of_placed, membership.counts
            )
            dense = np.searchsorted(self._all_vertex_ids, membership.pair_vertex[keep])
            offsets = np.searchsorted(dense, np.arange(self._all_vertex_ids.size + 1))
            self._sync_csr = (offsets, membership.pair_partition[keep].astype(np.int32))
        offsets, partitions = self._sync_csr

        def remote() -> np.ndarray:
            masters = master_partition_array(self._all_vertex_ids, self.num_partitions)
            dense = np.repeat(np.arange(masters.size), np.diff(offsets))
            crossing = executor_of[partitions] != executor_of[masters][dense]
            return np.bincount(dense[crossing], minlength=masters.size)

        kept = self._sync_remote = for_executor_map(self._sync_remote, executor_of, remote)
        return offsets, partitions, kept[1]
