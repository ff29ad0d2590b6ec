"""Degree computation expressed with the ``aggregate_messages`` primitive.

This is the "hello world" of the GraphX API and doubles as a worked example
of how to build new computations on top of the engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.messaging import ArrayMessageKernel
from ..engine.partitioned_graph import PartitionedGraph
from ..engine.pregel import aggregate_messages
from ..errors import EngineError
from .result import AlgorithmResult

__all__ = ["degree_count", "DegreeKernel"]


class DegreeKernel(ArrayMessageKernel):
    """Vectorised degree messages: one ``1`` per edge endpoint in the
    requested direction (``both`` interleaves ``src``-then-``dst`` per edge,
    exactly like the scalar send order), merged with ``np.add``."""

    merge_ufunc = np.add
    merge_identity = 0
    message_dtype = np.int64

    def __init__(self, direction: str) -> None:
        self.direction = direction

    def send_message_array(self, src_idx, dst_idx, state):
        num_edges = src_idx.size
        if self.direction == "out":
            positions = np.arange(num_edges, dtype=np.int64)
            targets = src_idx
        elif self.direction == "in":
            positions = np.arange(num_edges, dtype=np.int64)
            targets = dst_idx
        else:  # both: (src, 1) then (dst, 1) for every edge
            positions = np.repeat(np.arange(num_edges, dtype=np.int64), 2)
            targets = np.empty(2 * num_edges, dtype=np.int64)
            targets[0::2] = src_idx
            targets[1::2] = dst_idx
        return positions, targets, np.ones(targets.size, dtype=np.int64)


def degree_count(
    pgraph: PartitionedGraph,
    direction: str = "out",
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> AlgorithmResult:
    """Compute per-vertex in-, out- or total degree on the engine.

    ``direction`` is ``"out"``, ``"in"`` or ``"both"``.  Vertices with no
    edges in the requested direction get a degree of 0.
    """
    if direction not in ("out", "in", "both"):
        raise EngineError(f"direction must be 'out', 'in' or 'both', got {direction!r}")

    vertex_ids = pgraph.graph.vertex_ids
    # Degree messages do not read vertex state.
    (target_idx, merged), report = aggregate_messages(
        pgraph,
        vertex_values=None,
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=0.5,
        message_kernel=DegreeKernel(direction),
    )
    values = np.zeros(vertex_ids.size, dtype=np.int64)
    values[target_idx] = merged
    return AlgorithmResult(
        algorithm=f"DegreeCount[{direction}]",
        vertex_ids=vertex_ids,
        values=values,
        num_supersteps=report.num_supersteps,
        report=report,
    )
