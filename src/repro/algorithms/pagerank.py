"""Static PageRank over the partitioned-graph engine.

Mirrors GraphX's ``staticPageRank``: every vertex stays active and the
update rule

    rank_v  <-  reset + (1 - reset) * sum_{u -> v} rank_u / outDegree_u

runs for a fixed number of iterations (the paper uses 10).  Ranks are not
normalised, matching GraphX semantics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.messaging import ArrayMessageKernel
from ..engine.partitioned_graph import PartitionedGraph
from ..engine.pregel import pregel
from ..errors import EngineError, require_count
from .result import AlgorithmResult

__all__ = ["pagerank", "PageRankKernel"]

#: Compute units charged per edge triplet (rank contribution is one multiply/add).
_EDGE_UNITS = 1.0
#: Compute units charged per vertex-program invocation.
_VERTEX_UNITS = 1.0


class PageRankKernel(ArrayMessageKernel):
    """Vectorised rank-contribution messages: ``rank / out_degree`` along
    every out-edge, merged with ``np.add``.

    The state array holds the ranks; the constant out-degrees (int64, in
    ``vertex_ids`` order) are the kernel's own.
    """

    merge_ufunc = np.add
    merge_identity = 0.0
    message_dtype = np.float64
    # Every out-edge of a positive-degree vertex sends every superstep, so
    # the fold plan and routing counters are superstep-invariant.
    static_message_structure = True

    def __init__(self, reset_prob: float, degrees: np.ndarray) -> None:
        self.reset_prob = reset_prob
        self.damping = 1.0 - reset_prob
        self._degrees = degrees

    def send_message_array(self, src_idx, dst_idx, state):
        degrees = self._degrees[src_idx]
        positions = np.flatnonzero(degrees > 0)
        sending = src_idx[positions]
        return positions, dst_idx[positions], state[sending] / self._degrees[sending]

    def static_messages(self, src_idx, dst_idx):
        degrees = self._degrees
        positions = np.flatnonzero(degrees[src_idx] > 0)
        sending = src_idx[positions]
        has_out = degrees > 0

        def send(state):
            # One division per vertex, then one gather: the same IEEE
            # quotient per message as ``send_message_array``'s.
            shares = np.divide(state, degrees, out=np.zeros(state.size), where=has_out)
            return shares[sending]

        return positions, dst_idx[positions], send

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

    Returns an :class:`AlgorithmResult` whose ``values`` hold each
    vertex's (unnormalised) rank.  ``parallel_workers >= 2`` fans the
    supersteps out across a shared-memory process pool, bit-identically
    (see :mod:`repro.engine.parallel`).
    """
    num_iterations = require_count(num_iterations, "num_iterations", 1, EngineError)
    if not 0.0 < reset_prob < 1.0:
        raise EngineError("reset_prob must be in (0, 1)")

    graph = pgraph.graph
    result = pregel(
        pgraph,
        initial_values=np.ones(graph.num_vertices),
        max_iterations=num_iterations,
        active_direction="either",
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=_EDGE_UNITS,
        vertex_compute_units=_VERTEX_UNITS,
        always_active=True,
        message_kernel=PageRankKernel(reset_prob, graph.out_degree_array()),
        parallel_workers=parallel_workers,
    )

    return AlgorithmResult(
        algorithm="PageRank",
        vertex_ids=graph.vertex_ids,
        values=result.vertex_values,
        num_supersteps=result.num_supersteps,
        report=result.report,
    )
