"""Partitioning strategy interface and the assignment result object.

A partitioning strategy maps every edge of a graph to one of ``N``
partitions (a *vertex cut*: vertices that have edges in several partitions
are replicated, exactly as in GraphX).  Strategies are pure functions of
the edge endpoints and the partition count unless documented otherwise.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import AbstractSet, Collection, Optional, Tuple

import numpy as np

from ..core.graph import Graph
from ..core.validation import require_positive_partitions
from ..errors import PartitioningError
from .membership import CompiledPlacement, VertexMembership, compile_placement

__all__ = [
    "ChunkAssigner",
    "PartitionStrategy",
    "EdgePartitionAssignment",
    "LoadLevels",
]


class ChunkAssigner:
    """Incremental edge placement over one bounded-chunk stream.

    Obtained from :meth:`PartitionStrategy.begin_stream`; callers feed the
    edge stream *in order* as bounded ``(src, dst)`` chunks and concatenate
    the returned placements.  The result is identical, edge for edge, to
    :meth:`PartitionStrategy.assign` on the whole graph — stateful
    strategies carry their scoring state (loads, vertex membership, partial
    degrees) across chunks, so chunk boundaries never influence placement.
    """

    def assign_chunk(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Place the next ``len(src)`` edges of the stream; returns int64 ids."""
        raise NotImplementedError

    def finish(self) -> None:
        """Hook called once after the last chunk; the default does nothing."""


class _StatelessChunkAssigner(ChunkAssigner):
    """Chunk adapter for strategies that are pure functions of the endpoints."""

    def __init__(self, strategy: "PartitionStrategy", num_partitions: int) -> None:
        self._strategy = strategy
        self._num_partitions = num_partitions

    def assign_chunk(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.size == 0:
            return np.empty(0, dtype=np.int64)
        return self._strategy.assign_array(src, dst, self._num_partitions)


class LoadLevels:
    """Integer partition loads kept as sorted ``load * k + id`` keys, so the
    least-loaded partitions and the load bounds are read from the ends and
    placing an edge moves one key."""

    def __init__(self, num_partitions: int) -> None:
        self.num_partitions = num_partitions
        self.loads = [0] * num_partitions
        self._keys = list(range(num_partitions))

    def add(self, part: int) -> None:
        """Count one more edge in ``part``."""
        keys, key = self._keys, self.loads[part] * self.num_partitions + part
        del keys[bisect.bisect_left(keys, key)]
        bisect.insort(keys, key + self.num_partitions)
        self.loads[part] += 1

    def bounds(self) -> Tuple[int, int]:
        """``(min_load, max_load)``."""
        return self._keys[0] // self.num_partitions, self._keys[-1] // self.num_partitions

    def least_loaded(self, taken: Collection[int] = ()) -> Tuple[int, int]:
        """``(load, id)`` of the least-loaded partition not in ``taken`` (which
        must leave one out), lowest id first."""
        for key in self._keys:
            load, part = divmod(key, self.num_partitions)
            if part not in taken:
                return load, part

    def best(self, parts_src: AbstractSet[int], parts_dst: AbstractSet[int], weight_src: float,
             weight_dst: float, weight: float, top: float, scale: float) -> int:
        """The first maximum, by id, over all partitions of ``(weight_src if
        it holds the source else 0.0) + (weight_dst if it holds the
        destination else 0.0) + weight * (top - load) / scale``.  That
        balance never rises with load, so of the partitions holding neither
        endpoint only the least-loaded, lowest-id one is scored, or, if
        rounding gives the next load level the same balance, the lowest id
        of that top balance."""
        loads, k = self.loads, self.num_partitions
        taken = parts_src | parts_dst if parts_src and parts_dst else parts_src or parts_dst
        best_score, best_part = float("-inf"), k
        for part in taken:
            score = (weight_src if part in parts_src else 0.0) + (
                weight_dst if part in parts_dst else 0.0
            ) + weight * (top - loads[part]) / scale
            if score > best_score or (score == best_score and part < best_part):
                best_score, best_part = score, part
        if len(taken) == k or best_score > weight * (top - self._keys[0] // k) / scale:
            return best_part  # no partition outside ``taken`` can reach it
        load, part = self.least_loaded(taken)
        high = weight * (top - load) / scale
        if weight * (top - load - 1) / scale == high:
            part = next((p for p in range(part) if p not in taken
                         and weight * (top - loads[p]) / scale == high), part)
        if high > best_score or (high == best_score and part < best_part):
            return part
        return best_part


@dataclass
class EdgePartitionAssignment:
    """The result of partitioning a graph's edges.

    Attributes
    ----------
    graph:
        The graph that was partitioned.
    num_partitions:
        Number of partitions requested.
    partition_of:
        ``int64`` array of length ``graph.num_edges``; entry ``i`` is the
        partition id of edge ``i``.
    strategy_name:
        Name of the strategy that produced this assignment.
    """

    graph: Graph
    num_partitions: int
    partition_of: np.ndarray
    strategy_name: str = ""
    _compiled: Optional[CompiledPlacement] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.partition_of = np.asarray(self.partition_of, dtype=np.int64)
        if self.partition_of.shape[0] != self.graph.num_edges:
            raise PartitioningError(
                "partition_of must have one entry per edge "
                f"({self.partition_of.shape[0]} != {self.graph.num_edges})"
            )
        if self.partition_of.size:
            low, high = int(self.partition_of.min()), int(self.partition_of.max())
            if low < 0 or high >= self.num_partitions:
                raise PartitioningError(
                    f"partition ids must be in [0, {self.num_partitions}), got [{low}, {high}]"
                )

    # ------------------------------------------------------------------
    def edges_per_partition(self) -> np.ndarray:
        """Number of edges assigned to each partition (length ``num_partitions``)."""
        return np.bincount(self.partition_of, minlength=self.num_partitions).astype(np.int64)

    def edge_ids_of_partition(self, partition_id: int) -> np.ndarray:
        """Indices of the edges placed in ``partition_id``."""
        return np.nonzero(self.partition_of == partition_id)[0]

    def compiled(self) -> CompiledPlacement:
        """This placement compiled once (cached): the engine's triplet
        arrays and the metrics' membership both read it."""
        if self._compiled is None:
            graph = self.graph
            self._compiled = compile_placement(
                graph.vertex_ids, graph.src, graph.dst, self.partition_of, self.num_partitions
            )
        return self._compiled

    def membership(self) -> VertexMembership:
        """The array-native vertex replication relation the metrics,
        routing tables and engine consume (part of :meth:`compiled`)."""
        return self.compiled().membership


class PartitionStrategy(abc.ABC):
    """Base class for all edge-placement (vertex-cut) strategies."""

    #: Short name used in tables and the registry (e.g. ``"RVC"``).
    name: str = "abstract"

    @abc.abstractmethod
    def partition_edge(self, src: int, dst: int, num_partitions: int) -> int:
        """Return the partition id for one edge ``src -> dst``."""

    def assign_array(self, src: np.ndarray, dst: np.ndarray, num_partitions: int) -> np.ndarray:
        """Vectorised edge placement; the default falls back to the scalar method.

        The fallback deliberately calls :meth:`partition_edge` once per edge
        in stream order — subclasses may be stateful — so it stays scalar;
        every registry strategy overrides either this method with true array
        placement or :meth:`assign` wholesale, making this purely the
        compatibility path for third-party strategies.
        """
        return np.fromiter(
            (self.partition_edge(int(s), int(d), num_partitions) for s, d in zip(src, dst)),
            dtype=np.int64,
            count=len(src),
        )

    def begin_stream(self, num_partitions: int, num_edges: int) -> ChunkAssigner:
        """Start a chunked placement stream over ``num_edges`` total edges.

        The default adapter re-dispatches each chunk through
        :meth:`assign_array`, which is correct for every strategy that is a
        pure function of the endpoints and the partition count.  Stateful
        streaming strategies (Greedy, HDRF, Fennel) override this with
        assigners that carry scoring state across chunks; strategies whose
        placement depends on *whole-graph* degree context (DBH, Hybrid)
        override it to raise :class:`~repro.errors.PartitioningError`.

        ``num_edges`` is the total stream length — capacity-based strategies
        need it up front to size their balance caps exactly as
        :meth:`assign` does.
        """
        require_positive_partitions(num_partitions)
        if num_edges < 0:
            raise PartitioningError(f"num_edges must be non-negative, got {num_edges}")
        return _StatelessChunkAssigner(self, num_partitions)

    def assign(self, graph: Graph, num_partitions: int) -> EdgePartitionAssignment:
        """Partition all edges of ``graph`` into ``num_partitions`` parts."""
        require_positive_partitions(num_partitions)
        if graph.num_edges == 0:
            placement = np.empty(0, dtype=np.int64)
        else:
            placement = self.assign_array(graph.src, graph.dst, num_partitions)
        return EdgePartitionAssignment(
            graph=graph,
            num_partitions=num_partitions,
            partition_of=placement,
            strategy_name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
