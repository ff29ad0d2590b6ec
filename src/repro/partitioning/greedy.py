"""Degree- and state-aware vertex-cut strategies (extension partitioners).

These are not part of the paper's six strategies; they come from the
related-work space the paper cites (PowerGraph's greedy placement, DBH,
HDRF) and are used by the ablation benchmark to quantify how much headroom
a smarter, non-hash partitioner has over the paper's best pick.

The streaming strategies are inherently sequential (each placement feeds
the next), so the edge loop stays in Python, but it never scans all ``k``
partitions: a :class:`~repro.partitioning.base.LoadLevels` keeps integer
loads in ``(load, id)`` order (its front is Greedy's fallback), and HDRF
scores only the endpoints' partitions plus the lowest-id least-loaded
other one, whose balance term can only be matched, never beaten, by a
more loaded partition.  Scores are the seed's float expressions in the
seed's order, and where rounding ties two load levels' balance (a zero or
subnormal weight) the lowest id of that balance wins.  Vertex membership
stays sparse (one set per placed vertex, the seed's ``where`` map), so
memory is O(total replicas) even at 1024+ partitions.  Placements are
identical to the seed's, tie-breaking included, which
``tests/test_array_equivalence.py`` asserts edge for edge.

Both streaming strategies expose their loops through
:meth:`~repro.partitioning.base.PartitionStrategy.begin_stream`: the
scoring state (loads, ``where`` membership, HDRF partial degrees) lives on
a :class:`~repro.partitioning.base.ChunkAssigner` that survives across
bounded chunks, so the out-of-core ingestion path places edges identically
to a whole-graph :meth:`assign` — which is itself implemented as a
single-chunk stream.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

import numpy as np

from ..core.graph import Graph
from ..core.validation import require_positive_partitions
from ..errors import PartitioningError
from .base import ChunkAssigner, EdgePartitionAssignment, LoadLevels, PartitionStrategy
from .degrees import DegreeLookup
from .hashing import mix64

__all__ = ["DegreeBasedHashing", "GreedyVertexCut", "HdrfPartitioner"]


class DegreeBasedHashing(PartitionStrategy):
    """Degree-Based Hashing (DBH): hash the lower-degree endpoint of each edge.

    High-degree "superstar" vertices get cut (replicated) while low-degree
    vertices stay whole, which lowers the total replication factor on
    power-law graphs compared to RVC.
    """

    name = "DBH"

    def __init__(self) -> None:
        self._degrees: Optional[DegreeLookup] = None

    def partition_edge(self, src: int, dst: int, num_partitions: int) -> int:
        deg_src = self._degrees.get(src) if self._degrees else 0
        deg_dst = self._degrees.get(dst) if self._degrees else 0
        anchor = src if deg_src <= deg_dst else dst
        return int(mix64(anchor) % np.uint64(num_partitions))

    def assign_array(self, src: np.ndarray, dst: np.ndarray, num_partitions: int) -> np.ndarray:
        if self._degrees is None:
            # No degree context: every degree reads as zero and the tie rule
            # anchors the source, exactly like the scalar method.
            anchor = np.asarray(src, dtype=np.int64)
        else:
            deg_src = self._degrees.gather(src)
            deg_dst = self._degrees.gather(dst)
            anchor = np.where(deg_src <= deg_dst, src, dst)
        return (mix64(anchor) % np.uint64(num_partitions)).astype(np.int64)

    def begin_stream(self, num_partitions: int, num_edges: int) -> ChunkAssigner:
        raise PartitioningError(
            "DBH anchors each edge at its lower-degree endpoint, which needs "
            "every vertex's final degree before the first placement; it cannot "
            "stream over bounded chunks"
        )

    def assign(self, graph: Graph, num_partitions: int) -> EdgePartitionAssignment:
        require_positive_partitions(num_partitions)
        self._degrees = DegreeLookup.count(
            graph.vertex_ids, np.concatenate([graph.src, graph.dst])
        )
        try:
            return super().assign(graph, num_partitions)
        finally:
            self._degrees = None


class _GreedyChunkAssigner(ChunkAssigner):
    """The PowerGraph greedy loop with its state lifted out of ``assign``."""

    def __init__(self, num_partitions: int, num_edges: int, balance_slack: float) -> None:
        self._levels = LoadLevels(num_partitions)
        self._capacity = max(1.0, balance_slack * num_edges / num_partitions)
        self._where: Dict[int, Set[int]] = {}

    def assign_chunk(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        levels = self._levels
        loads = levels.loads
        capacity = self._capacity
        where = self._where
        placement = np.empty(len(src), dtype=np.int64)
        no_parts: frozenset = frozenset()

        def open_parts(parts: Set[int]) -> list:
            return [(loads[p], p) for p in parts if loads[p] < capacity]

        for index, (s, d) in enumerate(
            zip(np.asarray(src).tolist(), np.asarray(dst).tolist())
        ):
            parts_src = where.get(s, no_parts)
            parts_dst = where.get(d, no_parts)
            # The seed's min(candidates, key=(load, id)): the non-full
            # partitions holding both endpoints, else either, else all.
            candidates = open_parts(parts_src & parts_dst) or open_parts(parts_src | parts_dst)
            choice = min(candidates)[1] if candidates else levels.least_loaded()[1]
            placement[index] = choice
            levels.add(choice)
            where.setdefault(s, set()).add(choice)
            where.setdefault(d, set()).add(choice)
        return placement


class GreedyVertexCut(PartitionStrategy):
    """PowerGraph-style greedy ("oblivious") streaming vertex cut.

    Edges are processed in order; each edge goes to a partition chosen by
    the classic greedy rules, subject to a capacity cap that keeps the
    partitions balanced:

    1. if both endpoints already live in a common (non-full) partition,
       pick the least loaded of those;
    2. else if one endpoint is placed in a non-full partition, pick its
       least loaded partition;
    3. else pick the globally least loaded partition.

    A partition is "full" once it holds ``balance_slack`` times its fair
    share of edges; full partitions are skipped so the affinity rules
    cannot collapse the whole graph into one partition.
    """

    name = "Greedy"

    def __init__(self, balance_slack: float = 1.1) -> None:
        if not (math.isfinite(balance_slack) and balance_slack >= 1.0):
            raise ValueError(f"balance_slack must be finite and >= 1.0, got {balance_slack}")
        self.balance_slack = balance_slack

    def partition_edge(self, src: int, dst: int, num_partitions: int) -> int:
        raise NotImplementedError(
            "GreedyVertexCut is stateful; use assign() on a whole graph instead"
        )

    def begin_stream(self, num_partitions: int, num_edges: int) -> ChunkAssigner:
        require_positive_partitions(num_partitions)
        if num_edges < 0:
            raise PartitioningError(f"num_edges must be non-negative, got {num_edges}")
        return _GreedyChunkAssigner(num_partitions, num_edges, self.balance_slack)

    def assign(self, graph: Graph, num_partitions: int) -> EdgePartitionAssignment:
        assigner = self.begin_stream(num_partitions, graph.num_edges)
        return EdgePartitionAssignment(
            graph=graph,
            num_partitions=num_partitions,
            partition_of=assigner.assign_chunk(graph.src, graph.dst),
            strategy_name=self.name,
        )


class _HdrfChunkAssigner(ChunkAssigner):
    """The HDRF scoring loop with its state lifted out of ``assign``."""

    def __init__(self, num_partitions: int, balance_weight: float) -> None:
        self._balance_weight = balance_weight
        self._levels = LoadLevels(num_partitions)
        self._partial_degree: Dict[int, int] = {}
        self._where: Dict[int, Set[int]] = {}

    def assign_chunk(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        balance_weight = self._balance_weight
        levels = self._levels
        partial_degree = self._partial_degree
        where = self._where
        placement = np.empty(len(src), dtype=np.int64)
        no_parts: frozenset = frozenset()

        for index, (s, d) in enumerate(
            zip(np.asarray(src).tolist(), np.asarray(dst).tolist())
        ):
            partial_degree[s] = partial_degree.get(s, 0) + 1
            partial_degree[d] = partial_degree.get(d, 0) + 1
            deg_src = partial_degree[s]
            deg_dst = partial_degree[d]
            total = deg_src + deg_dst
            rep_src = 1.0 + (1.0 - deg_src / total)
            rep_dst = 1.0 + (1.0 - deg_dst / total)
            min_load, max_load = levels.bounds()
            spread = (max_load - min_load) + 1.0
            parts_src = where.get(s, no_parts)
            parts_dst = where.get(d, no_parts)

            # The seed's ((rep_src + rep_dst) + bal) in its order, bit for bit.
            best_part = levels.best(
                parts_src, parts_dst, rep_src, rep_dst, balance_weight, max_load, spread
            )
            placement[index] = best_part
            levels.add(best_part)
            where.setdefault(s, set()).add(best_part)
            where.setdefault(d, set()).add(best_part)
        return placement


class HdrfPartitioner(PartitionStrategy):
    """High-Degree (are) Replicated First (HDRF) streaming vertex cut.

    Scores every partition for every incoming edge with the standard HDRF
    objective ``C_rep(p) + lambda * C_bal(p)`` where the replication term
    prefers partitions that already hold an endpoint (weighted toward
    replicating the higher-degree endpoint) and the balance term penalises
    loaded partitions.
    """

    name = "HDRF"

    def __init__(self, balance_weight: float = 1.0) -> None:
        if not (math.isfinite(balance_weight) and balance_weight >= 0):
            raise ValueError(f"balance_weight must be finite and >= 0, got {balance_weight}")
        self.balance_weight = balance_weight

    def partition_edge(self, src: int, dst: int, num_partitions: int) -> int:
        raise NotImplementedError(
            "HdrfPartitioner is stateful; use assign() on a whole graph instead"
        )

    def begin_stream(self, num_partitions: int, num_edges: int) -> ChunkAssigner:
        require_positive_partitions(num_partitions)
        if num_edges < 0:
            raise PartitioningError(f"num_edges must be non-negative, got {num_edges}")
        return _HdrfChunkAssigner(num_partitions, self.balance_weight)

    def assign(self, graph: Graph, num_partitions: int) -> EdgePartitionAssignment:
        assigner = self.begin_stream(num_partitions, graph.num_edges)
        return EdgePartitionAssignment(
            graph=graph,
            num_partitions=num_partitions,
            partition_of=assigner.assign_chunk(graph.src, graph.dst),
            strategy_name=self.name,
        )
