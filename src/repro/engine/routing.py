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
per-vertex dict build.  The ``replicas`` / ``masters`` dicts are expanded
lazily, for the scalar reference Pregel loop and the scalar
triangle-count oracle that read them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
        self._replicas: Optional[Dict[int, Tuple[int, ...]]] = None
        self._masters: Optional[Dict[int, int]] = None
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

    @classmethod
    def from_vertex_partitions(
        cls,
        num_partitions: int,
        vertex_partitions: Dict[int, frozenset],
    ) -> "RoutingTable":
        """Seed dict-walking constructor: the oracle of the equivalence tests.

        Builds the ``replicas`` / ``masters`` dicts exactly as the seed
        ``from_assignment`` did (from a
        :meth:`~repro.partitioning.base.EdgePartitionAssignment.vertex_partitions_reference`
        dict), then wraps them in the array representation.
        """
        from ..metrics.partition_metrics import master_partition

        replicas = {
            vertex: tuple(sorted(parts)) for vertex, parts in vertex_partitions.items()
        }
        masters = {vertex: master_partition(vertex, num_partitions) for vertex in replicas}
        all_ids = np.array(sorted(replicas), dtype=np.int64)
        pair_vertex = np.array(
            [v for v, parts in sorted(replicas.items()) for _ in parts], dtype=np.int64
        )
        pair_partition = np.array(
            [p for _, parts in sorted(replicas.items()) for p in parts], dtype=np.int64
        )
        table = cls(num_partitions, VertexMembership(pair_vertex, pair_partition, num_partitions), all_ids)
        table._replicas = replicas
        table._masters = masters
        return table

    # ------------------------------------------------------------------
    # Dict views, expanded on demand for the scalar reference paths.
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> Dict[int, Tuple[int, ...]]:
        """``{vertex: sorted partitions holding a copy}`` for every graph vertex.

        Read by the scalar triangle-count oracle; code that touches many vertices
        should use :attr:`membership` or the bulk accessor
        :meth:`broadcast_plan` instead.
        """
        if self._replicas is None:
            self._replicas = self.membership.to_dict(self._all_vertex_ids, factory=tuple)
        return self._replicas

    @property
    def masters(self) -> Dict[int, int]:
        """``{vertex: master partition}`` for every graph vertex (scalar loop)."""
        if self._masters is None:
            masters_all = master_partition_array(self._all_vertex_ids, self.num_partitions)
            self._masters = dict(
                zip(self._all_vertex_ids.tolist(), masters_all.tolist())
            )
        return self._masters

    # ------------------------------------------------------------------
    # Scalar accessors (seed API, unchanged semantics).
    # ------------------------------------------------------------------
    def replica_partitions(self, vertex: int) -> Tuple[int, ...]:
        """Partitions that hold a copy of ``vertex`` (empty for isolated vertices)."""
        return tuple(self.membership.partitions_of(vertex).tolist())

    def master_of(self, vertex: int) -> int:
        """Partition that owns the master copy of ``vertex``.

        Goes through the cached :attr:`masters` dict (built once, then O(1)
        per call) because callers like the triangle-count simulation query
        it per cut vertex; raises ``KeyError`` for unknown vertices, as the
        seed dict did.
        """
        return self.masters[vertex]

    def replication_count(self, vertex: int) -> int:
        """Number of partitions holding a copy of ``vertex``."""
        return int(self.membership.partitions_of(vertex).size)

    def sync_message_count(self, vertex: int) -> int:
        """Messages needed to push the master value of ``vertex`` to its replicas.

        The master partition does not need to message itself, so the count
        is the number of replica partitions different from the master.
        """
        parts = self.membership.partitions_of(vertex)
        if not parts.size:
            return 0
        master = master_partition_array(np.int64(vertex), self.num_partitions)
        return int((parts != master).sum())

    # ------------------------------------------------------------------
    # Array-native accessors used by the engine and the metrics.
    # ------------------------------------------------------------------
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
