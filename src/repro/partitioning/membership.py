"""Array-native vertex replication model and the placement compiler.

The paper's replication accounting (replication factor, CommCost,
vertices-to-same/other, routing tables) and the engine's replica slots
all derive from one relation: the ``(vertex, partition)`` pairs of an
edge placement.  :func:`compile_placement` builds it once per placement
by sorting, never hashing (numpy 2's ``np.unique`` hashes, which on a
placement's endpoints is 20-40x slower than a sort), in both orders it
is read in: partition-major as the engine's replica slots, and
vertex-major as :class:`VertexMembership`'s flat CSR arrays:

* ``pair_vertex`` / ``pair_partition`` — the distinct ``(vertex,
  partition)`` pairs, sorted by vertex then partition;
* ``vertices`` — the distinct *placed* vertices (vertices touching at
  least one edge), sorted ascending;
* ``offsets`` — ``offsets[i]:offsets[i+1]`` slices the pair arrays to the
  partitions holding a copy of ``vertices[i]``.

Everything downstream reduces to ``bincount`` / boolean-mask / segment
operations over these arrays.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from .hashing import mix64

__all__ = [
    "MASTER_SALT",
    "CompiledPlacement",
    "VertexMembership",
    "compile_placement",
    "master_partition_array",
    "segment_arange",
    "sorted_unique",
    "sorted_unique_inverse",
]

#: Salt applied before hashing so the vertex-master placement is independent
#: of the hash values the edge partitioners use (GraphX partitions the
#: vertex RDD with a separate HashPartitioner; without the salt, strategies
#: that reuse the vertex hash would get an artificial co-location bonus).
MASTER_SALT = 0x9E3779B97F4A7C15


def master_partition_array(vertex_ids: np.ndarray, num_partitions: int) -> np.ndarray:
    """Master partition of every vertex in ``vertex_ids`` (vectorised).

    GraphX hash-partitions the vertex RDD independently of the edge
    placement; a salted 64-bit mix mirrors that, so masters are
    uncorrelated with any edge partitioner's placement.
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


def _run_heads(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in ``ordered``."""
    heads = np.empty(ordered.size, dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    return heads


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort, without ``np.unique``'s hashing."""
    ordered = np.sort(values, axis=None)
    return ordered[_run_heads(ordered)]


def sorted_unique_inverse(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a 1-D array by one
    stable argsort and its run heads, without ``np.unique``'s hashing."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    heads = _run_heads(ordered)
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = np.cumsum(heads) - 1
    return ordered[heads], inverse


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
        starts = np.flatnonzero(_run_heads(pair_vertex))
        self.vertices = pair_vertex[starts]
        self.offsets = np.append(starts, pair_vertex.size).astype(np.int64)
        self._masters: Optional[np.ndarray] = None
        self._by_partition = None  # (sorted vertices, offsets) grouped by partition

    # ------------------------------------------------------------------
    @classmethod
    def from_slots(
        cls,
        slot_vertex: np.ndarray,
        slot_bounds: np.ndarray,
        num_partitions: int,
    ) -> "VertexMembership":
        """The relation of a placement's replica slots.

        ``slot_vertex[slot_bounds[p]:slot_bounds[p+1]]`` are the distinct
        vertex ids partition ``p`` mirrors, ascending; so one stable sort
        by vertex puts the pairs in vertex-then-partition order.
        """
        order = np.argsort(slot_vertex, kind="stable")
        slot_pid = np.repeat(np.arange(num_partitions, dtype=np.int64), np.diff(slot_bounds))
        return cls(slot_vertex[order], slot_pid[order], num_partitions)

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
    def vertices_per_partition(self) -> np.ndarray:
        """Number of distinct vertices mirrored into each partition."""
        return np.bincount(self.pair_partition, minlength=self.num_partitions).astype(np.int64)

    def partition_major(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(vertices, bounds)``: every pair's vertex, partition-major and
        ascending within a partition, which owns ``bounds[p]:bounds[p+1]``."""
        if self._by_partition is None:
            # Sorted in their narrowest dtype, which numpy radix-sorts.
            pid = self.pair_partition.astype(np.min_scalar_type(max(self.num_partitions - 1, 0)))
            order = np.argsort(pid, kind="stable")
            grouped = self.pair_vertex[order]
            bounds = np.searchsorted(pid[order], np.arange(self.num_partitions + 1))
            self._by_partition = (grouped, bounds)
        return self._by_partition

    def vertices_of_partition(self, partition_id: int) -> np.ndarray:
        """Sorted distinct vertices mirrored into ``partition_id``."""
        grouped, bounds = self.partition_major()
        return grouped[bounds[partition_id]:bounds[partition_id + 1]]


class CompiledPlacement(NamedTuple):
    """One edge placement, compiled: the arrays of
    :class:`~repro.engine.messaging.TripletArrays` (which documents them)
    that follow from the placement alone, plus its membership."""

    src: np.ndarray
    dst: np.ndarray
    edge_bounds: np.ndarray
    endpoint_slot: np.ndarray
    slot_vertex: np.ndarray
    slot_bounds: np.ndarray
    membership: VertexMembership


def compile_placement(
    vertex_ids: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    partition_of: np.ndarray,
    num_partitions: int,
) -> CompiledPlacement:
    """Compile the placement of edges ``(src[i], dst[i])`` into partitions
    ``partition_of[i]`` over the sorted vertex table ``vertex_ids``.

    A stable sort of the partition ids orders the edges.  One sort of the
    2E endpoints by ``(partition, vertex)`` — by vertex, then stably by
    partition — yields the slots: an endpoint's slot is its key's rank
    among the distinct keys, so the sorted keys' run heads are the slots
    and the running head count scattered back is ``endpoint_slot``.
    :meth:`VertexMembership.from_slots` sorts the slots vertex-major.
    """
    # Partition ids fit 8 or 16 bits at any practical k, where numpy's
    # stable sort is a radix sort.
    pid = partition_of.astype(np.min_scalar_type(max(num_partitions - 1, 0)))
    order = np.argsort(pid, kind="stable")
    edges_per_partition = np.bincount(pid, minlength=num_partitions)
    edge_bounds = np.append(0, np.cumsum(edges_per_partition))
    # Endpoint 2i is partition-major edge i's source, 2i + 1 its destination.
    endpoints = np.stack([src[order], dst[order]], axis=1).ravel()
    endpoint_pid = np.repeat(np.arange(num_partitions, dtype=pid.dtype), 2 * edges_per_partition)
    del order, pid
    by_vertex = np.argsort(endpoints)
    by_slot = by_vertex[np.argsort(endpoint_pid[by_vertex], kind="stable")]
    del by_vertex
    endpoints = endpoints[by_slot]
    heads = _run_heads(endpoints)
    heads[2 * edge_bounds[:-1][edges_per_partition > 0]] = True  # partition starts
    endpoint_slot = np.empty(by_slot.size, dtype=np.int32)
    endpoint_slot[by_slot] = np.cumsum(heads, dtype=np.int32) - 1
    del by_slot

    slot_ids = endpoints[heads]
    slot_bounds = np.searchsorted(endpoint_pid[heads], np.arange(num_partitions + 1))
    del endpoints, endpoint_pid, heads
    slot_vertex = np.searchsorted(vertex_ids, slot_ids).astype(np.int32)
    dense = slot_vertex.astype(np.int64)
    return CompiledPlacement(
        src=dense[endpoint_slot[0::2]],
        dst=dense[endpoint_slot[1::2]],
        edge_bounds=edge_bounds,
        endpoint_slot=endpoint_slot,
        slot_vertex=slot_vertex,
        slot_bounds=slot_bounds,
        membership=VertexMembership.from_slots(slot_ids, slot_bounds, num_partitions),
    )
