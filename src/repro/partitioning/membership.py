"""Array-native vertex replication model.

The paper's replication accounting (replication factor, CommCost,
vertices-to-same/other, routing tables) all derive from one relation: the
set of ``(vertex, partition)`` pairs induced by an edge placement.  The
seed implementation materialised that relation as ``Dict[int, frozenset]``
with a per-edge Python loop, which dominates the cost of every
partitioning study at the paper's granularities (128/256 partitions).

:class:`VertexMembership` stores the same relation as flat, deduplicated
numpy arrays in CSR form:

* ``pair_vertex`` / ``pair_partition`` — the distinct ``(vertex,
  partition)`` pairs, sorted by vertex then partition;
* ``vertices`` — the distinct *placed* vertices (vertices touching at
  least one edge), sorted ascending;
* ``offsets`` — ``offsets[i]:offsets[i+1]`` slices the pair arrays to the
  partitions holding a copy of ``vertices[i]``.

Everything downstream (metrics, routing, edge-partition mirror lists, the
engine's replica broadcasts) reduces to ``bincount`` / boolean-mask /
segment operations over these arrays.  :meth:`VertexMembership.to_dict`
expands it into the seed's dict form for the routing table's ``replicas``
view (read by the scalar triangle count) and the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .hashing import mix64

__all__ = [
    "MASTER_SALT",
    "VertexMembership",
    "master_partition_array",
    "segment_arange",
]

#: Salt applied before hashing so the vertex-master placement is independent
#: of the hash values the edge partitioners use (GraphX partitions the
#: vertex RDD with a separate HashPartitioner; without the salt, strategies
#: that reuse the vertex hash would get an artificial co-location bonus).
MASTER_SALT = 0x9E3779B97F4A7C15


def master_partition_array(vertex_ids: np.ndarray, num_partitions: int) -> np.ndarray:
    """Master partition of every vertex in ``vertex_ids`` (vectorised).

    Elementwise identical to
    :func:`repro.metrics.partition_metrics.master_partition`.
    """
    salted = np.asarray(vertex_ids, dtype=np.uint64) ^ np.uint64(MASTER_SALT)
    return (mix64(salted) % np.uint64(num_partitions)).astype(np.int64)


def segment_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten CSR-style segments into one position array.

    Returns the concatenation of ``starts[i] + arange(counts[i])`` for
    every segment — the standard segment-arange expansion used by the
    membership CSR, the engine's triplet probes and the triangle kernels.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(
        total, dtype=np.int64
    )


def _unique_pairs(vertex: np.ndarray, partition: np.ndarray, num_partitions: int):
    """Distinct ``(vertex, partition)`` pairs sorted by vertex then partition."""
    if vertex.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    # Encode each pair as vertex * P + partition so one 1-D np.unique both
    # deduplicates and sorts lexicographically; fall back to the slower
    # 2-column unique only when the encoding could overflow int64.
    max_vertex = int(vertex.max())
    if max_vertex <= (np.iinfo(np.int64).max - (num_partitions - 1)) // num_partitions:
        keys = np.unique(vertex * np.int64(num_partitions) + partition)
        pair_vertex = keys // num_partitions
        pair_partition = keys - pair_vertex * num_partitions
        return pair_vertex, pair_partition
    stacked = np.unique(np.stack([vertex, partition], axis=1), axis=0)
    return np.ascontiguousarray(stacked[:, 0]), np.ascontiguousarray(stacked[:, 1])


class VertexMembership:
    """CSR view of the vertex -> {partitions holding a copy} relation."""

    def __init__(
        self,
        pair_vertex: np.ndarray,
        pair_partition: np.ndarray,
        num_partitions: int,
    ) -> None:
        self.pair_vertex = pair_vertex
        self.pair_partition = pair_partition
        self.num_partitions = int(num_partitions)
        if pair_vertex.size:
            change = np.empty(pair_vertex.size, dtype=bool)
            change[0] = True
            np.not_equal(pair_vertex[1:], pair_vertex[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            self.vertices = pair_vertex[starts]
            self.offsets = np.append(starts, pair_vertex.size).astype(np.int64)
        else:
            self.vertices = np.empty(0, dtype=np.int64)
            self.offsets = np.zeros(1, dtype=np.int64)
        self._masters: Optional[np.ndarray] = None
        self._by_partition = None  # (sorted vertices, offsets) grouped by partition

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        partition_of: np.ndarray,
        num_partitions: int,
    ) -> "VertexMembership":
        """Build the membership relation of one edge placement."""
        vertex = np.concatenate([src, dst]).astype(np.int64, copy=False)
        partition = np.concatenate([partition_of, partition_of]).astype(np.int64, copy=False)
        pair_vertex, pair_partition = _unique_pairs(vertex, partition, num_partitions)
        return cls(pair_vertex, pair_partition, num_partitions)

    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Total number of vertex replicas across all partitions."""
        return int(self.pair_vertex.size)

    @property
    def num_placed_vertices(self) -> int:
        """Number of vertices materialised in at least one partition."""
        return int(self.vertices.size)

    @property
    def counts(self) -> np.ndarray:
        """Replication count of every placed vertex (aligned with ``vertices``)."""
        return np.diff(self.offsets)

    @property
    def masters(self) -> np.ndarray:
        """Master partition of every placed vertex (aligned with ``vertices``)."""
        if self._masters is None:
            self._masters = master_partition_array(self.vertices, self.num_partitions)
        return self._masters

    # ------------------------------------------------------------------
    def indices_of(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Positions of ``vertex_ids`` in ``vertices`` (-1 where not placed)."""
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        if self.vertices.size == 0:
            return np.full(vertex_ids.shape, -1, dtype=np.int64)
        idx = np.searchsorted(self.vertices, vertex_ids)
        np.clip(idx, 0, self.vertices.size - 1, out=idx)
        idx[self.vertices[idx] != vertex_ids] = -1
        return idx

    def partitions_of(self, vertex: int) -> np.ndarray:
        """Sorted partitions holding a copy of ``vertex`` (empty if unplaced)."""
        idx = int(np.searchsorted(self.vertices, vertex))
        if idx >= self.vertices.size or self.vertices[idx] != vertex:
            return np.empty(0, dtype=np.int64)
        return self.pair_partition[self.offsets[idx]:self.offsets[idx + 1]]

    def expand(self, indices: np.ndarray):
        """Flatten the pair slices of placed-vertex ``indices``.

        Returns ``(pair_positions, counts)`` where ``pair_positions`` indexes
        the pair arrays and ``counts[i]`` replicas belong to ``indices[i]``
        (the standard CSR segment-arange expansion).
        """
        starts = self.offsets[indices]
        counts = self.offsets[indices + 1] - starts
        return segment_arange(starts, counts), counts

    def vertices_per_partition(self) -> np.ndarray:
        """Number of distinct vertices mirrored into each partition."""
        return np.bincount(self.pair_partition, minlength=self.num_partitions).astype(np.int64)

    def vertices_of_partition(self, partition_id: int) -> np.ndarray:
        """Sorted distinct vertices mirrored into ``partition_id``."""
        if self._by_partition is None:
            order = np.argsort(self.pair_partition, kind="stable")
            grouped = self.pair_vertex[order]
            bounds = np.searchsorted(
                self.pair_partition[order], np.arange(self.num_partitions + 1)
            )
            self._by_partition = (grouped, bounds)
        grouped, bounds = self._by_partition
        return grouped[bounds[partition_id]:bounds[partition_id + 1]]

    # ------------------------------------------------------------------
    def to_dict(self, all_vertex_ids: np.ndarray, factory: type = frozenset) -> Dict[int, frozenset]:
        """Expand to the seed ``{vertex: frozenset(partitions)}`` mapping.

        ``all_vertex_ids`` supplies the key set (isolated vertices map to an
        empty collection, exactly as the seed implementation produced).
        ``factory`` wraps each vertex's partition-id slice — the slices are
        already sorted ascending, so ``factory=tuple`` yields the routing
        table's sorted replica tuples without re-sorting.
        """
        parts = self.pair_partition.tolist()
        offsets = self.offsets.tolist()
        placed = {
            int(v): factory(parts[offsets[i]:offsets[i + 1]])
            for i, v in enumerate(self.vertices.tolist())
        }
        empty = factory(())
        return {int(v): placed.get(int(v), empty) for v in np.asarray(all_vertex_ids).tolist()}
