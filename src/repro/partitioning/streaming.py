"""Streaming, single-pass edge placement in the spirit of Fennel / LDG.

Fennel and Stanton-Kliot's streaming heuristics were designed for
edge-cut partitioning of the vertex set; here we adapt the same
"greedy with a balance penalty" idea to edge placement so it can be
compared head-to-head with the paper's vertex-cut strategies in the
ablation benchmark.

Like HDRF (see :mod:`repro.partitioning.greedy`), it scores only the
endpoints' partitions plus the lowest-id least-loaded other one, and lands
every edge where the seed's scan over all ``k`` partitions did.

The scoring loop lives on a chunk assigner (see
:meth:`~repro.partitioning.base.PartitionStrategy.begin_stream`) so the
out-of-core ingestion path can feed bounded chunks through the same state
and land every edge exactly where a whole-graph :meth:`assign` would.
"""

from __future__ import annotations

import math
from typing import Dict, Set

import numpy as np

from ..core.graph import Graph
from ..core.validation import require_positive_partitions
from ..errors import PartitioningError
from .base import ChunkAssigner, EdgePartitionAssignment, LoadLevels, PartitionStrategy

__all__ = ["FennelEdgePartitioner"]


class _FennelChunkAssigner(ChunkAssigner):
    """The Fennel scoring loop with its state lifted out of ``assign``."""

    def __init__(self, num_partitions: int, num_edges: int, gamma: float) -> None:
        self._gamma = gamma
        self._capacity = max(1.0, num_edges / num_partitions)
        self._levels = LoadLevels(num_partitions)
        self._where: Dict[int, Set[int]] = {}

    def assign_chunk(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        gamma = self._gamma
        capacity = self._capacity
        levels = self._levels
        where = self._where
        placement = np.empty(len(src), dtype=np.int64)
        no_parts: frozenset = frozenset()

        for index, (s, d) in enumerate(
            zip(np.asarray(src).tolist(), np.asarray(dst).tolist())
        ):
            parts_src = where.get(s, no_parts)
            parts_dst = where.get(d, no_parts)
            # affinity - gamma * load / capacity, bit for bit: rounding is
            # sign-symmetric, so gamma * (0 - load) / capacity negates it.
            best_part = levels.best(parts_src, parts_dst, 1.0, 1.0, gamma, 0, capacity)
            placement[index] = best_part
            levels.add(best_part)
            where.setdefault(s, set()).add(best_part)
            where.setdefault(d, set()).add(best_part)
        return placement


class FennelEdgePartitioner(PartitionStrategy):
    """Single-pass edge placement with a Fennel-style balance penalty.

    For each edge the score of partition ``p`` is the number of endpoints
    already present in ``p`` minus ``gamma * (load_p / capacity)``; the
    highest-scoring partition wins.  ``capacity`` is the average number of
    edges per partition, so the penalty grows as a partition fills beyond
    its fair share.
    """

    name = "Fennel"

    def __init__(self, gamma: float = 1.5) -> None:
        if not (math.isfinite(gamma) and gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
        self.gamma = gamma

    def partition_edge(self, src: int, dst: int, num_partitions: int) -> int:
        raise NotImplementedError(
            "FennelEdgePartitioner is stateful; use assign() on a whole graph instead"
        )

    def begin_stream(self, num_partitions: int, num_edges: int) -> ChunkAssigner:
        require_positive_partitions(num_partitions)
        if num_edges < 0:
            raise PartitioningError(f"num_edges must be non-negative, got {num_edges}")
        return _FennelChunkAssigner(num_partitions, num_edges, self.gamma)

    def assign(self, graph: Graph, num_partitions: int) -> EdgePartitionAssignment:
        assigner = self.begin_stream(num_partitions, graph.num_edges)
        return EdgePartitionAssignment(
            graph=graph,
            num_partitions=num_partitions,
            partition_of=assigner.assign_chunk(graph.src, graph.dst),
            strategy_name=self.name,
        )
