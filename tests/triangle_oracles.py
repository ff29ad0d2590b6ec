"""Reference triangle counts the library's :func:`triangle_count` is held to.

Both run every phase per placement, as the library did before it split the
placement-independent intersection out into a per-graph cache, and return
a :class:`~repro.engine.pregel.PregelResult` whose ``vertex_values`` dict
the library result's lazy ``vertex_values`` must equal:

* :func:`triangle_count_scalar` — the seed per-edge/per-set loops over the
  partition-major scan (the reference semantics);
* :func:`triangle_count_array` — the array implementation of the same three
  phases: ``np.unique`` canonicalisation over the triplet arrays and one
  global ``searchsorted`` over a sorted adjacency, rebuilt for every
  placement.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.algorithms.triangle_count import (
    _BYTES_PER_ID,
    _CUT_REDUCTION_UNITS,
    _CUT_STATE_BYTES,
    _INTERSECT_UNITS,
    _SET_BUILD_UNITS,
    _add_bulk_bytes,
)
from repro.engine.cluster import ClusterConfig, paper_cluster
from repro.engine.cost_model import CostModel, CostParameters
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import PregelResult
from repro.partitioning.membership import segment_arange
from pregel_oracles import routing_views


def triangle_count_scalar(
    pgraph: PartitionedGraph,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> PregelResult:
    """The seed per-edge/per-set implementation (reference semantics)."""
    cluster = cluster or paper_cluster()
    model = CostModel(cluster, cost_parameters)
    report = model.new_report()
    report.load_seconds = model.load_seconds(pgraph.dataset_bytes)

    routing = pgraph.routing
    num_partitions = pgraph.num_partitions
    edge_lists = pgraph.triplets().edge_lists()

    # Phase 1: canonicalise edges and collect neighbour-id sets at vertex
    # masters (GraphX collectNeighborIds).
    partition_units = [0.0] * num_partitions
    neighbour_sets: Dict[int, Set[int]] = {
        int(v): set() for v in pgraph.graph.vertex_ids.tolist()
    }
    seen_canonical: Set = set()
    edges_scanned = 0
    canonical_edges = 0

    for pid, edges in enumerate(edge_lists):
        for src, dst in edges:
            edges_scanned += 1
            partition_units[pid] += 1.0
            if src == dst:
                continue
            lo, hi = (src, dst) if src < dst else (dst, src)
            key = (lo, hi)
            if key in seen_canonical:
                continue
            seen_canonical.add(key)
            canonical_edges += 1
            neighbour_sets[lo].add(hi)
            neighbour_sets[hi].add(lo)
            partition_units[pid] += 2 * _SET_BUILD_UNITS

    model.record_superstep(
        report,
        superstep=0,
        partition_units=partition_units,
        messages_remote=num_partitions,
        messages_local=num_partitions,
        active_vertices=len(neighbour_sets),
        edges_scanned=edges_scanned,
    )
    _add_bulk_bytes(model, report, 2 * canonical_edges * _BYTES_PER_ID)

    # Phase 2: one per-vertex state reduction per cut vertex, shipping its
    # neighbour set to the partitions that mirror it.
    partition_units = [0.0] * num_partitions
    cut_vertices = 0
    shipped_bytes = 0
    views = routing_views(routing, pgraph.graph.vertex_ids)
    for vertex, parts in views.replicas.items():
        if len(parts) <= 1:
            continue
        cut_vertices += 1
        master = views.masters[vertex]
        set_size = len(neighbour_sets.get(vertex, ()))
        partition_units[master] += _CUT_REDUCTION_UNITS + set_size * _SET_BUILD_UNITS
        shipped_bytes += _CUT_STATE_BYTES + set_size * _BYTES_PER_ID
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

    # Phase 3: per-edge set intersections, then credit both endpoints.
    partition_units = [0.0] * num_partitions
    double_counts: Dict[int, int] = {v: 0 for v in neighbour_sets}
    counted_targets = 0
    edges_scanned = 0
    counted: Set = set()

    for pid, edges in enumerate(edge_lists):
        for src, dst in edges:
            if src == dst:
                continue
            lo, hi = (src, dst) if src < dst else (dst, src)
            key = (lo, hi)
            if key in counted:
                continue
            counted.add(key)
            edges_scanned += 1
            set_lo = neighbour_sets[lo]
            set_hi = neighbour_sets[hi]
            smaller, larger = (set_lo, set_hi) if len(set_lo) <= len(set_hi) else (set_hi, set_lo)
            partition_units[pid] += len(smaller) * _INTERSECT_UNITS
            common = len(smaller & larger)
            if common:
                double_counts[lo] += common
                double_counts[hi] += common
                counted_targets += 2

    model.record_superstep(
        report,
        superstep=2,
        partition_units=partition_units,
        messages_remote=num_partitions,
        messages_local=num_partitions,
        active_vertices=sum(1 for c in double_counts.values() if c),
        edges_scanned=edges_scanned,
    )
    _add_bulk_bytes(model, report, counted_targets * _BYTES_PER_ID)

    per_vertex = {vertex: count // 2 for vertex, count in double_counts.items()}
    return PregelResult(
        vertex_values=per_vertex, num_supersteps=report.num_supersteps, report=report
    )


def triangle_count_array(
    pgraph: PartitionedGraph,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> PregelResult:
    """Array implementation of the three phases, all of them per placement.

    Compute is charged to the partition of each canonical edge's *first*
    occurrence in the partition-major scan order, found by
    ``np.unique(..., return_index=True)`` over the triplet arrays.
    """
    cluster = cluster or paper_cluster()
    model = CostModel(cluster, cost_parameters)
    report = model.new_report()
    report.load_seconds = model.load_seconds(pgraph.dataset_bytes)

    trip = pgraph.triplets()
    num_vertices = trip.num_vertices
    num_partitions = trip.num_partitions
    membership = pgraph.routing.membership

    # Phase 1: canonicalise edges and size the neighbour-id sets.
    partition_units = np.diff(trip.edge_bounds).astype(np.float64) * 1.0
    keep = trip.src != trip.dst
    lo_all = np.minimum(trip.src[keep], trip.dst[keep])
    hi_all = np.maximum(trip.src[keep], trip.dst[keep])
    codes = lo_all * np.int64(max(num_vertices, 1)) + hi_all
    _, first_positions = np.unique(codes, return_index=True)
    lo = lo_all[first_positions]
    hi = hi_all[first_positions]
    first_edges = np.flatnonzero(keep)[first_positions]
    first_pid = np.searchsorted(trip.edge_bounds, first_edges, side="right") - 1
    canonical_edges = int(lo.size)
    partition_units += (
        np.bincount(first_pid, minlength=num_partitions) * (2 * _SET_BUILD_UNITS)
    )
    set_sizes = np.bincount(lo, minlength=num_vertices) + np.bincount(
        hi, minlength=num_vertices
    )

    model.record_superstep(
        report,
        superstep=0,
        partition_units=partition_units,
        messages_remote=num_partitions,
        messages_local=num_partitions,
        active_vertices=num_vertices,
        edges_scanned=trip.num_edges,
    )
    _add_bulk_bytes(model, report, 2 * canonical_edges * _BYTES_PER_ID)

    # Phase 2: one per-vertex state reduction per cut vertex.
    partition_units = np.zeros(num_partitions, dtype=np.float64)
    cut = membership.counts > 1
    cut_vertices = int(cut.sum())
    cut_masters = membership.masters[cut]
    cut_set_sizes = set_sizes[
        np.searchsorted(trip.vertex_ids, membership.vertices[cut])
    ]
    partition_units += np.bincount(
        cut_masters,
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

    # Phase 3: per-edge set intersections via one sorted-adjacency probe.
    partition_units = np.zeros(num_partitions, dtype=np.float64)
    if canonical_edges:
        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo])
        keys = np.sort(heads * np.int64(num_vertices) + tails)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(set_sizes, out=indptr[1:])
        probe_lo = set_sizes[lo] <= set_sizes[hi]
        probe = np.where(probe_lo, lo, hi)
        other = np.where(probe_lo, hi, lo)
        probe_sizes = set_sizes[probe]
        partition_units += np.bincount(
            first_pid, weights=probe_sizes * _INTERSECT_UNITS, minlength=num_partitions
        )
        total_probes = int(probe_sizes.sum())
        if total_probes:
            edge_of = np.repeat(np.arange(canonical_edges, dtype=np.int64), probe_sizes)
            neighbour_keys = keys[segment_arange(indptr[probe], probe_sizes)]
            queries = (
                other[edge_of] * np.int64(num_vertices)
                + neighbour_keys % np.int64(num_vertices)
            )
            hits = np.searchsorted(keys, queries)
            found = keys[np.minimum(hits, keys.size - 1)] == queries
            common = np.bincount(edge_of[found], minlength=canonical_edges)
        else:
            common = np.zeros(canonical_edges, dtype=np.int64)
        double_counts = (
            np.bincount(lo, weights=common, minlength=num_vertices)
            + np.bincount(hi, weights=common, minlength=num_vertices)
        ).astype(np.int64)
        counted_targets = 2 * int((common > 0).sum())
    else:
        double_counts = np.zeros(num_vertices, dtype=np.int64)
        counted_targets = 0

    model.record_superstep(
        report,
        superstep=2,
        partition_units=partition_units,
        messages_remote=num_partitions,
        messages_local=num_partitions,
        active_vertices=int((double_counts > 0).sum()),
        edges_scanned=canonical_edges,
    )
    _add_bulk_bytes(model, report, counted_targets * _BYTES_PER_ID)

    per_vertex = dict(zip(trip.vertex_ids.tolist(), (double_counts // 2).tolist()))
    return PregelResult(
        vertex_values=per_vertex, num_supersteps=report.num_supersteps, report=report
    )
