"""Hybrid cut: differentiated placement for low- and high-degree vertices.

PowerLyra's hybrid-cut (referenced via Verma et al. in the paper's related
work) treats low-degree and high-degree vertices differently: edges whose
destination has low in-degree are grouped by destination (like the paper's
DC strategy, giving those vertices a single reduction site), while edges
pointing at high-degree "superstar" vertices are hashed by source so the
hub's load spreads over many partitions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.graph import Graph
from ..core.validation import require_positive_partitions
from ..errors import PartitioningError, require_count
from .base import ChunkAssigner, EdgePartitionAssignment, PartitionStrategy
from .degrees import DegreeLookup
from .hashing import mix64

__all__ = ["HybridCut"]


class HybridCut(PartitionStrategy):
    """Degree-threshold hybrid of destination grouping and source hashing.

    Parameters
    ----------
    threshold:
        In-degree above which a destination vertex counts as high-degree.
        ``None`` (default) picks ``4 x`` the graph's average in-degree at
        ``assign`` time, which adapts the split point to the dataset.
    """

    name = "Hybrid"

    def __init__(self, threshold: Optional[int] = None) -> None:
        if threshold is not None:
            threshold = require_count(threshold, "threshold", 1, ValueError)
        self.threshold = threshold
        self._in_degrees: Optional[DegreeLookup] = None
        self._effective_threshold: float = float("inf")

    def partition_edge(self, src: int, dst: int, num_partitions: int) -> int:
        degree = self._in_degrees.get(dst) if self._in_degrees else 0
        if degree > self._effective_threshold:
            return int(mix64(src) % np.uint64(num_partitions))
        return int(mix64(dst) % np.uint64(num_partitions))

    def assign_array(self, src: np.ndarray, dst: np.ndarray, num_partitions: int) -> np.ndarray:
        if self._in_degrees is None:
            in_degree = np.zeros(len(dst), dtype=np.int64)
        else:
            in_degree = self._in_degrees.gather(dst)
        anchor = np.where(in_degree > self._effective_threshold, src, dst)
        return (mix64(anchor) % np.uint64(num_partitions)).astype(np.int64)

    def begin_stream(self, num_partitions: int, num_edges: int) -> ChunkAssigner:
        raise PartitioningError(
            "Hybrid splits on each destination's final in-degree, which needs "
            "the whole graph before the first placement; it cannot stream over "
            "bounded chunks"
        )

    def assign(self, graph: Graph, num_partitions: int) -> EdgePartitionAssignment:
        require_positive_partitions(num_partitions)
        self._in_degrees = DegreeLookup.count(graph.vertex_ids, graph.dst)
        if self.threshold is not None:
            self._effective_threshold = float(self.threshold)
        elif graph.num_vertices:
            average = graph.num_edges / graph.num_vertices
            self._effective_threshold = max(1.0, 4.0 * average)
        else:
            self._effective_threshold = float("inf")
        try:
            return super().assign(graph, num_partitions)
        finally:
            self._in_degrees = None
            self._effective_threshold = float("inf")
