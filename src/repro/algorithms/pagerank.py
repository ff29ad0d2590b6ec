"""Static PageRank over the partitioned-graph engine.

Mirrors GraphX's ``staticPageRank``: every vertex stays active and the
update rule

    rank_v  <-  reset + (1 - reset) * sum_{u -> v} rank_u / outDegree_u

runs for a fixed number of iterations (the paper uses 10).  Ranks are not
normalised, matching GraphX semantics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.messaging import ArrayMessageKernel
from ..engine.partitioned_graph import PartitionedGraph
from ..engine.pregel import pregel
from ..errors import EngineError
from .result import AlgorithmResult

__all__ = ["pagerank", "PageRankKernel"]

#: Compute units charged per edge triplet (rank contribution is one multiply/add).
_EDGE_UNITS = 1.0
#: Compute units charged per vertex-program invocation.
_VERTEX_UNITS = 1.0


class PageRankKernel(ArrayMessageKernel):
    """Vectorised rank-contribution messages: ``rank / out_degree`` along
    every out-edge, merged with ``np.add``.

    The state array holds the ranks; the (constant) out-degrees are kept on
    the kernel and re-attached in :meth:`decode` so the decoded values are
    the scalar path's ``(rank, degree)`` tuples.
    """

    merge_ufunc = np.add
    merge_identity = 0.0
    message_dtype = np.float64
    # Every out-edge of a positive-degree vertex sends every superstep, so
    # the fold plan and routing counters are superstep-invariant.
    static_message_structure = True

    def __init__(self, reset_prob: float) -> None:
        self.reset_prob = reset_prob
        self.damping = 1.0 - reset_prob
        self._degrees: Optional[np.ndarray] = None

    def encode(self, vertex_ids, values):
        ids = vertex_ids.tolist()
        self._degrees = np.array([int(values[v][1]) for v in ids], dtype=np.int64)
        return np.array([float(values[v][0]) for v in ids], dtype=np.float64)

    def decode(self, vertex_ids, state):
        return {
            int(v): (float(rank), int(degree))
            for v, rank, degree in zip(
                vertex_ids.tolist(), state.tolist(), self._degrees.tolist()
            )
        }

    def send_message_array(self, src_idx, dst_idx, state):
        degrees = self._degrees[src_idx]
        positions = np.flatnonzero(degrees > 0)
        sending = src_idx[positions]
        return positions, dst_idx[positions], state[sending] / self._degrees[sending]

    def apply_messages_all(self, state, target_idx, messages):
        # Non-receivers see the algorithm's default message of 0.0.
        dense = np.zeros(state.size, dtype=np.float64)
        dense[target_idx] = messages
        return self.reset_prob + self.damping * dense


def pagerank(
    pgraph: PartitionedGraph,
    num_iterations: int = 10,
    reset_prob: float = 0.15,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    parallel_workers: Optional[int] = None,
) -> AlgorithmResult:
    """Run static PageRank for ``num_iterations`` supersteps.

    Returns an :class:`AlgorithmResult` whose ``vertex_values`` map each
    vertex to its (unnormalised) rank.  ``parallel_workers >= 2`` fans the
    supersteps out across a shared-memory process pool, bit-identically
    (see :mod:`repro.engine.parallel`).
    """
    if num_iterations < 1:
        raise EngineError("num_iterations must be >= 1")
    if not 0.0 < reset_prob < 1.0:
        raise EngineError("reset_prob must be in (0, 1)")

    out_degrees = pgraph.graph.out_degrees()
    initial_values: Dict[int, Tuple[float, int]] = {
        v: (1.0, out_degrees[v]) for v in out_degrees
    }
    result = pregel(
        pgraph,
        initial_values=initial_values,
        max_iterations=num_iterations,
        active_direction="either",
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=_EDGE_UNITS,
        vertex_compute_units=_VERTEX_UNITS,
        always_active=True,
        message_kernel=PageRankKernel(reset_prob),
        parallel_workers=parallel_workers,
    )

    ranks = {vertex: value[0] for vertex, value in result.vertex_values.items()}
    return AlgorithmResult(
        algorithm="PageRank",
        vertex_values=ranks,
        num_supersteps=result.num_supersteps,
        report=result.report,
    )
