"""Connected components via label propagation (GraphX semantics).

Every vertex starts labelled with its own id; labels propagate along edges
in both directions and every vertex keeps the minimum label it has seen.
At convergence each (weakly) connected component is labelled with its
lowest vertex id, which is exactly what GraphX's ``connectedComponents``
returns.  The active set shrinks as labels converge, which is the effect
that makes fine-grained partitioning pay off in the paper's Figure 4.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.messaging import ArrayMessageKernel
from ..engine.partitioned_graph import PartitionedGraph
from ..engine.pregel import pregel
from .result import AlgorithmResult

__all__ = ["connected_components", "ConnectedComponentsKernel"]

_EDGE_UNITS = 1.0
_VERTEX_UNITS = 0.5


class ConnectedComponentsKernel(ArrayMessageKernel):
    """Vectorised label propagation: the smaller endpoint label crosses the
    edge (at most one message per triplet, like the scalar ``elif``),
    merged with ``np.minimum``."""

    merge_ufunc = np.minimum
    merge_identity = np.iinfo(np.int64).max
    message_dtype = np.int64

    def send_message_array(self, src_idx, dst_idx, state):
        src_labels = state[src_idx]
        dst_labels = state[dst_idx]
        forward = src_labels < dst_labels
        backward = dst_labels < src_labels
        positions = np.flatnonzero(forward | backward)
        targets = np.where(forward, dst_idx, src_idx)[positions]
        labels = np.where(forward, src_labels, dst_labels)[positions]
        return positions, targets, labels

    def apply_messages(self, state, target_idx, messages):
        state[target_idx] = np.minimum(state[target_idx], messages)
        return state


def connected_components(
    pgraph: PartitionedGraph,
    max_iterations: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    parallel_workers: Optional[int] = None,
) -> AlgorithmResult:
    """Label every vertex with the smallest vertex id of its weak component.

    ``max_iterations`` caps the number of label-propagation supersteps; the
    default (``None``) runs to the fixpoint.  The paper's evaluation caps
    PageRank and Connected Components at 10 iterations, which the
    experiment harness passes explicitly.
    """
    iterations = max_iterations if max_iterations is not None else pgraph.graph.num_vertices + 1

    vertex_ids = pgraph.graph.vertex_ids
    result = pregel(
        pgraph,
        initial_values=vertex_ids.astype(np.int64),
        max_iterations=iterations,
        active_direction="either",
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=_EDGE_UNITS,
        vertex_compute_units=_VERTEX_UNITS,
        message_kernel=ConnectedComponentsKernel(),
        parallel_workers=parallel_workers,
    )

    return AlgorithmResult(
        algorithm="ConnectedComponents",
        vertex_ids=vertex_ids,
        values=result.vertex_values,
        num_supersteps=result.num_supersteps,
        report=result.report,
    )
