"""Triangle counting over the partitioned-graph engine (GraphX semantics).

The computation follows GraphX's ``TriangleCount``:

1. canonicalise the graph (undirected, no self loops, no duplicates) and
   collect every vertex's neighbour-id set at its master partition;
2. reduce the per-vertex state of every **cut** vertex and ship its
   neighbour set to the edge partitions that mirror it;
3. for every canonical edge intersect the two endpoint sets, crediting both
   endpoints, then halve the per-vertex counters.

Only the accounting of these phases depends on the placement.  The
canonical edges, the neighbour-set sizes and every intersection depend on
the edges alone, so :meth:`Graph.triangles <repro.core.graph.Graph.triangles>`
computes them once per graph (:class:`GraphTriangles`) and
:func:`triangle_count` charges them to the partitions of each placement.

Cost-model calibration
----------------------
The paper finds that Triangle Count behaves very differently from the
Pregel-style algorithms: its execution time is driven by per-vertex state
and per-vertex/per-edge compute, correlates with the **Cut** metric and is
almost insensitive (5-10%) to the partitioner choice.  The accounting here
encodes exactly that explanation:

* the neighbour-collection and intersection shuffles are charged as bulk
  transfers whose *bytes* scale with the number of edges (partitioner
  independent), not as per-replica message envelopes;
* one reduction (message + serialisation compute) is charged per **cut
  vertex**, following the paper's Section 4 explanation;
* set construction and intersection probes carry high per-unit compute
  costs, making the algorithm compute-bound relative to PageRank.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..core.graph import Graph
from ..engine.cluster import ClusterConfig, paper_cluster
from ..engine.cost_model import CostModel, CostParameters
from ..engine.partitioned_graph import PartitionedGraph
from ..partitioning.membership import segment_arange
from .result import AlgorithmResult

__all__ = ["GraphTriangles", "triangle_count", "total_triangles"]

#: Compute units per neighbour-id inserted while building adjacency sets.
_SET_BUILD_UNITS = 2.0
#: Compute units per id probed during a set intersection.
_INTERSECT_UNITS = 2.0
#: Reduction overhead (compute units) charged once per cut vertex.
_CUT_REDUCTION_UNITS = 150.0
#: Bytes per neighbour id shipped during the bulk shuffles.
_BYTES_PER_ID = 16
#: Fixed serialised per-vertex state shipped for every cut vertex during the
#: phase-2 reduction (the "per-vertex state" cost the paper attributes to
#: the Cut metric).
_CUT_STATE_BYTES = 3072


def _add_bulk_bytes(model: CostModel, report, remote_bytes: int) -> None:
    """Charge a bulk payload (bytes only) on top of the last recorded superstep."""
    record = report.supersteps[-1]
    seconds = model.network_seconds(0, 0, remote_bytes)
    record.bytes_remote += remote_bytes
    record.network_seconds += seconds
    record.total_seconds += seconds


class GraphTriangles(NamedTuple):
    """The placement-independent part of the triangle count of one graph.

    Canonical edges are numbered in the order of their code ``lo * n + hi``
    over dense vertex indices (``lo < hi``).
    """

    #: Ids of the graph's non-loop edges, grouped by canonical edge.
    edges_by_code: np.ndarray
    #: Start of each canonical edge's group in ``edges_by_code``.
    group_starts: np.ndarray
    #: Neighbour-set size of every dense vertex in the canonical graph.
    set_sizes: np.ndarray
    #: Size of the smaller endpoint set each canonical edge probes.
    probe_sizes: np.ndarray
    #: Endpoint credits of phase 3: two per edge that closes a triangle.
    counted_targets: int
    #: Number of vertices on at least one triangle.
    active_vertices: int
    #: Triangles through every dense vertex (read-only; results share it).
    counts: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached arrays."""
        arrays = (
            self.edges_by_code, self.group_starts, self.set_sizes, self.probe_sizes, self.counts
        )
        return sum(int(array.nbytes) for array in arrays)

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphTriangles":
        """Canonicalise ``graph`` and intersect every canonical edge's sets.

        The neighbour sets live in one sorted adjacency keyed by
        ``vertex * n + neighbour``, so one global ``searchsorted`` answers
        every membership probe.  Each edge probes its smaller endpoint set;
        ties probe ``lo``.
        """
        vertex_ids = graph.vertex_ids
        n = np.int64(max(vertex_ids.size, 1))
        src = np.searchsorted(vertex_ids, graph.src)
        dst = np.searchsorted(vertex_ids, graph.dst)
        kept = np.flatnonzero(src != dst)
        lo_all = np.minimum(src[kept], dst[kept])
        hi_all = np.maximum(src[kept], dst[kept])
        codes = lo_all * n + hi_all
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        group_starts = np.flatnonzero(np.diff(codes, prepend=-1))
        lo = lo_all[order[group_starts]]
        hi = hi_all[order[group_starts]]
        del lo_all, hi_all, codes

        set_sizes = np.bincount(lo, minlength=vertex_ids.size) + np.bincount(
            hi, minlength=vertex_ids.size
        )
        probe_lo = set_sizes[lo] <= set_sizes[hi]
        probe = np.where(probe_lo, lo, hi)
        other = np.where(probe_lo, hi, lo)
        probe_sizes = set_sizes[probe]
        keys = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
        indptr = np.zeros(set_sizes.size + 1, dtype=np.int64)
        np.cumsum(set_sizes, out=indptr[1:])
        edge_of = np.repeat(np.arange(lo.size, dtype=np.int64), probe_sizes)
        queries = other[edge_of] * n + keys[segment_arange(indptr[probe], probe_sizes)] % n
        hits = np.searchsorted(keys, queries)
        found = keys[np.minimum(hits, keys.size - 1)] == queries
        common = np.bincount(edge_of[found], minlength=lo.size)
        del keys, queries, hits, found, edge_of

        double_counts = (
            np.bincount(lo, weights=common, minlength=vertex_ids.size)
            + np.bincount(hi, weights=common, minlength=vertex_ids.size)
        ).astype(np.int64)
        counts = double_counts // 2
        counts.setflags(write=False)
        return cls(
            edges_by_code=kept[order],
            group_starts=group_starts,
            set_sizes=set_sizes,
            probe_sizes=probe_sizes,
            counted_targets=2 * int((common > 0).sum()),
            active_vertices=int((double_counts > 0).sum()),
            counts=counts,
        )


def triangle_count(
    pgraph: PartitionedGraph,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> AlgorithmResult:
    """Count triangles through every vertex of the canonicalised graph.

    ``values`` of the returned result holds the number of triangles every
    vertex participates in; :func:`total_triangles` sums them into the
    global count reported in Table 1.  The counts come from
    the graph's cached :class:`GraphTriangles`; this placement's share is
    the accounting: compute is charged to the partition of each canonical
    edge's *first* occurrence in the partition-major scan order, and the
    phase-2 reduction to the master of each cut vertex.
    """
    cluster = cluster or paper_cluster()
    model = CostModel(cluster, cost_parameters)
    report = model.new_report()
    report.load_seconds = model.load_seconds(pgraph.dataset_bytes)

    graph = pgraph.graph
    shared = graph.triangles()
    placement = pgraph.assignment.compiled()
    membership = placement.membership
    num_partitions = pgraph.num_partitions
    canonical_edges = int(shared.group_starts.size)
    # The compiled placement orders edges by a stable sort of their
    # partitions, so a canonical edge first appears in the partition-major
    # scan in the lowest partition holding a copy of it.
    first_pid = (
        np.minimum.reduceat(
            pgraph.assignment.partition_of[shared.edges_by_code], shared.group_starts
        )
        if canonical_edges
        else np.empty(0, dtype=np.int64)
    )

    # ------------------------------------------------------------------
    # Phase 1: canonicalise edges and collect the neighbour-id sets.
    # ------------------------------------------------------------------
    partition_units = np.diff(placement.edge_bounds).astype(np.float64)
    partition_units += (
        np.bincount(first_pid, minlength=num_partitions) * (2 * _SET_BUILD_UNITS)
    )
    model.record_superstep(
        report,
        superstep=0,
        partition_units=partition_units,
        messages_remote=num_partitions,
        messages_local=num_partitions,
        active_vertices=graph.num_vertices,
        edges_scanned=graph.num_edges,
    )
    _add_bulk_bytes(model, report, 2 * canonical_edges * _BYTES_PER_ID)

    # ------------------------------------------------------------------
    # Phase 2: one per-vertex state reduction per cut vertex.
    # ------------------------------------------------------------------
    cut = membership.counts > 1
    cut_vertices = int(cut.sum())
    cut_set_sizes = shared.set_sizes[
        np.searchsorted(graph.vertex_ids, membership.vertices[cut])
    ]
    partition_units = np.bincount(
        membership.masters[cut],
        weights=_CUT_REDUCTION_UNITS + cut_set_sizes * _SET_BUILD_UNITS,
        minlength=num_partitions,
    )
    shipped_bytes = cut_vertices * _CUT_STATE_BYTES + int(cut_set_sizes.sum()) * _BYTES_PER_ID
    model.record_superstep(
        report,
        superstep=1,
        partition_units=partition_units,
        messages_remote=cut_vertices,
        messages_local=0,
        active_vertices=cut_vertices,
        edges_scanned=0,
    )
    _add_bulk_bytes(model, report, shipped_bytes)

    # ------------------------------------------------------------------
    # Phase 3: per-edge set intersections, crediting both endpoints.
    # ------------------------------------------------------------------
    partition_units = np.bincount(
        first_pid, weights=shared.probe_sizes * _INTERSECT_UNITS, minlength=num_partitions
    )
    model.record_superstep(
        report,
        superstep=2,
        partition_units=partition_units,
        messages_remote=num_partitions,
        messages_local=num_partitions,
        active_vertices=shared.active_vertices,
        edges_scanned=canonical_edges,
    )
    _add_bulk_bytes(model, report, shared.counted_targets * _BYTES_PER_ID)

    return AlgorithmResult(
        algorithm="TriangleCount",
        vertex_ids=graph.vertex_ids,
        values=shared.counts,
        num_supersteps=report.num_supersteps,
        report=report,
    )


def total_triangles(result: AlgorithmResult) -> int:
    """Global triangle count from a :func:`triangle_count` result."""
    return int(result.values.sum()) // 3
