"""Scalar reference runs the library's array paths are held to.

The library runs every shipped algorithm through an
:class:`~repro.engine.messaging.ArrayMessageKernel` and every replication
count through :class:`~repro.partitioning.membership.VertexMembership`.
This module keeps the semantics those replaced, as the oracles of the
equivalence tests:

* the seed's scalar callback triples for PageRank, Connected Components,
  ShortestPaths, multi-source distances and degree counting, run through
  the public callback :func:`~repro.engine.pregel.pregel` /
  :func:`~repro.engine.pregel.aggregate_messages` loop.  A ``*_scalar``
  function returns a :class:`~repro.engine.pregel.PregelResult` whose
  ``vertex_values`` is the ``{vertex: value}`` dict its library entry
  point's lazy :attr:`AlgorithmResult.vertex_values
  <repro.algorithms.result.AlgorithmResult.vertex_values>` must equal
  (ranks, labels, landmark maps, degrees), next to the same
  ``num_supersteps``, ``report`` and ``simulated_seconds``;
* :func:`reference_pagerank`, PageRank on the bare edge list;
* the seed's dict walks over a placement: :func:`vertex_partitions_reference`,
  :func:`compute_metrics_reference` and :func:`routing_from_vertex_partitions`,
  plus :func:`routing_views`, which reads an array routing table back in
  the same dict form.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from repro.algorithms.connected_components import _EDGE_UNITS as _CC_EDGE_UNITS
from repro.algorithms.connected_components import _VERTEX_UNITS as _CC_VERTEX_UNITS
from repro.algorithms.pagerank import _EDGE_UNITS as _PR_EDGE_UNITS
from repro.algorithms.pagerank import _VERTEX_UNITS as _PR_VERTEX_UNITS
from repro.algorithms.shortest_paths import _EDGE_UNITS as _SP_EDGE_UNITS
from repro.algorithms.shortest_paths import _VERTEX_UNITS as _SP_VERTEX_UNITS
from repro.engine.cluster import ClusterConfig
from repro.engine.cost_model import CostParameters
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import PregelResult, aggregate_messages, pregel
from repro.engine.routing import RoutingTable
from repro.metrics.partition_metrics import PartitioningMetrics
from repro.partitioning.base import EdgePartitionAssignment
from repro.partitioning.membership import VertexMembership, master_partition_array


def _result(run: PregelResult, vertex_values: Optional[Dict] = None) -> PregelResult:
    return PregelResult(
        vertex_values=dict(run.vertex_values) if vertex_values is None else vertex_values,
        num_supersteps=run.num_supersteps,
        report=run.report,
    )


# ----------------------------------------------------------------------
# Algorithms
# ----------------------------------------------------------------------
def pagerank_scalar(
    pgraph: PartitionedGraph,
    num_iterations: int = 10,
    reset_prob: float = 0.15,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> PregelResult:
    """:func:`repro.algorithms.pagerank.pagerank` on the scalar loop."""
    out_degrees = pgraph.graph.out_degrees()
    damping = 1.0 - reset_prob

    def vertex_program(vertex, value, message):
        rank, degree = value
        if message is None:
            return value  # superstep 0: keep the initial rank
        return (reset_prob + damping * message, degree)

    def send_message(src, src_value, dst, dst_value):
        rank, degree = src_value
        if degree == 0:
            return ()
        return ((dst, rank / degree),)

    run = pregel(
        pgraph,
        initial_values={v: (1.0, out_degrees[v]) for v in out_degrees},
        initial_message=None,
        vertex_program=vertex_program,
        send_message=send_message,
        merge_message=lambda a, b: a + b,
        max_iterations=num_iterations,
        active_direction="either",
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=_PR_EDGE_UNITS,
        vertex_compute_units=_PR_VERTEX_UNITS,
        always_active=True,
        default_message=0.0,
    )
    ranks = {v: value[0] for v, value in run.vertex_values.items()}
    return _result(run, ranks)


def connected_components_scalar(
    pgraph: PartitionedGraph,
    max_iterations: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> PregelResult:
    """:func:`repro.algorithms.connected_components.connected_components`
    on the scalar loop."""

    def vertex_program(vertex, value, message):
        if message is None or math.isinf(message):
            return value
        return min(value, int(message))

    def send_message(src, src_value, dst, dst_value):
        messages = []
        if src_value < dst_value:
            messages.append((dst, src_value))
        elif dst_value < src_value:
            messages.append((src, dst_value))
        return messages

    run = pregel(
        pgraph,
        initial_values={int(v): int(v) for v in pgraph.graph.vertex_ids.tolist()},
        initial_message=math.inf,
        vertex_program=vertex_program,
        send_message=send_message,
        merge_message=lambda a, b: a if a < b else b,
        max_iterations=_fixpoint_cap(pgraph, max_iterations),
        active_direction="either",
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=_CC_EDGE_UNITS,
        vertex_compute_units=_CC_VERTEX_UNITS,
    )
    return _result(run)


def merge_maps(left: Dict[int, int], right: Dict[int, int]) -> Dict[int, int]:
    """Key-wise minimum of two landmark->distance maps."""
    merged = dict(left)
    for landmark, distance in right.items():
        if landmark not in merged or distance < merged[landmark]:
            merged[landmark] = distance
    return merged


def increment(distances: Dict[int, int]) -> Dict[int, int]:
    return {landmark: distance + 1 for landmark, distance in distances.items()}


def _fixpoint_cap(pgraph: PartitionedGraph, max_iterations: Optional[int]) -> int:
    return max_iterations if max_iterations is not None else pgraph.graph.num_vertices + 1


def _distance_maps(
    pgraph: PartitionedGraph,
    seeds: Iterable[int],
    forward: bool,
    max_iterations: Optional[int],
    cluster: Optional[ClusterConfig],
    cost_parameters: Optional[CostParameters],
) -> PregelResult:
    """The seed map-valued sweep: backwards to landmarks, or ``forward``
    from sources."""
    seed_set = {int(v) for v in seeds}

    def vertex_program(vertex, value, message):
        if not message:
            return value
        return merge_maps(value, message)

    def send_message(src, src_value, dst, dst_value):
        sender_value, receiver, receiver_value = (
            (src_value, dst, dst_value) if forward else (dst_value, src, src_value)
        )
        if not sender_value:
            return ()
        candidate = increment(sender_value)
        if merge_maps(candidate, receiver_value) != receiver_value:
            return ((receiver, candidate),)
        return ()

    run = pregel(
        pgraph,
        initial_values={
            int(v): ({int(v): 0} if int(v) in seed_set else {})
            for v in pgraph.graph.vertex_ids.tolist()
        },
        initial_message={},
        vertex_program=vertex_program,
        send_message=send_message,
        merge_message=merge_maps,
        max_iterations=_fixpoint_cap(pgraph, max_iterations),
        active_direction="either",
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=_SP_EDGE_UNITS,
        vertex_compute_units=_SP_VERTEX_UNITS,
    )
    return _result(run)


def shortest_paths_scalar(
    pgraph: PartitionedGraph,
    landmarks: Iterable[int],
    max_iterations: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> PregelResult:
    """:func:`repro.algorithms.shortest_paths.shortest_paths` on the scalar loop."""
    return _distance_maps(pgraph, landmarks, False, max_iterations, cluster, cost_parameters)


def multi_source_distances_scalar(
    pgraph: PartitionedGraph,
    sources: Iterable[int],
    max_iterations: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> PregelResult:
    """:func:`repro.algorithms.shortest_paths.multi_source_distances` on the
    scalar loop."""
    return _distance_maps(pgraph, sources, True, max_iterations, cluster, cost_parameters)


def degree_count_scalar(
    pgraph: PartitionedGraph,
    direction: str = "out",
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> PregelResult:
    """:func:`repro.algorithms.degrees.degree_count` on the scalar
    ``aggregate_messages`` loop."""

    def send_message(src, src_value, dst, dst_value):
        messages = []
        if direction in ("out", "both"):
            messages.append((src, 1))
        if direction in ("in", "both"):
            messages.append((dst, 1))
        return messages

    values = {int(v): 0 for v in pgraph.graph.vertex_ids.tolist()}
    merged, report = aggregate_messages(
        pgraph,
        vertex_values=values,
        send_message=send_message,
        merge_message=lambda a, b: a + b,
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=0.5,
    )
    values.update(merged)
    return PregelResult(vertex_values=values, num_supersteps=report.num_supersteps, report=report)


def reference_pagerank(
    graph,
    num_iterations: int = 10,
    reset_prob: float = 0.15,
) -> Dict[int, float]:
    """The update rule of :func:`repro.algorithms.pagerank.pagerank` run
    directly on the edge list, with no partitioning or engine involved."""
    out_degrees = graph.out_degrees()
    ranks = {v: 1.0 for v in out_degrees}
    damping = 1.0 - reset_prob
    for _ in range(num_iterations):
        contributions = {v: 0.0 for v in ranks}
        for src, dst in graph.edge_pairs():
            degree = out_degrees[src]
            if degree:
                contributions[dst] += ranks[src] / degree
        ranks = {v: reset_prob + damping * contributions[v] for v in ranks}
    return ranks


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
def master_partition(vertex_id: int, num_partitions: int) -> int:
    """The master partition of one vertex (scalar form of
    :func:`~repro.partitioning.membership.master_partition_array`)."""
    return int(master_partition_array(np.uint64(vertex_id), num_partitions))


def vertex_partitions_reference(assignment: EdgePartitionAssignment) -> Dict[int, frozenset]:
    """Map every vertex to the partitions holding a copy of it, the seed way.

    A vertex is present in a partition whenever at least one of its edges
    is assigned there; isolated vertices map to an empty set.
    """
    membership: Dict[int, set] = {int(v): set() for v in assignment.graph.vertex_ids.tolist()}
    src = assignment.graph.src.tolist()
    dst = assignment.graph.dst.tolist()
    for s, d, p in zip(src, dst, assignment.partition_of.tolist()):
        membership[s].add(p)
        membership[d].add(p)
    return {v: frozenset(ps) for v, ps in membership.items()}


def membership_dict(
    membership: VertexMembership, all_vertex_ids: np.ndarray, factory: type = frozenset
) -> Dict[int, frozenset]:
    """Expand ``membership`` to the seed ``{vertex: factory(partitions)}``
    mapping over ``all_vertex_ids`` (isolated vertices map to an empty
    collection; each slice is already sorted, so ``factory=tuple`` gives
    the seed routing table's sorted replica tuples)."""
    parts = membership.pair_partition.tolist()
    offsets = membership.offsets.tolist()
    placed = {
        int(v): factory(parts[offsets[i]:offsets[i + 1]])
        for i, v in enumerate(membership.vertices.tolist())
    }
    empty = factory(())
    return {int(v): placed.get(int(v), empty) for v in np.asarray(all_vertex_ids).tolist()}


def compute_metrics_reference(
    assignment: EdgePartitionAssignment,
    vertex_partitions: Optional[Dict[int, frozenset]] = None,
) -> PartitioningMetrics:
    """The seed per-vertex loop of
    :func:`repro.metrics.partition_metrics.compute_metrics`, walking a
    :func:`vertex_partitions_reference` dict."""
    num_partitions = assignment.num_partitions
    graph = assignment.graph

    edges_per_partition = assignment.edges_per_partition()
    num_edges = int(edges_per_partition.sum())
    mean_edges = num_edges / num_partitions if num_partitions else 0.0
    max_edges = int(edges_per_partition.max()) if edges_per_partition.size else 0
    balance = (max_edges / mean_edges) if mean_edges > 0 else 1.0
    part_stdev = float(np.std(edges_per_partition)) if edges_per_partition.size else 0.0

    if vertex_partitions is None:
        vertex_partitions = vertex_partitions_reference(assignment)

    non_cut = 0
    cut = 0
    comm_cost = 0
    total_replicas = 0
    vertices_to_same = 0
    vertices_to_other = 0
    vertices_per_partition = np.zeros(num_partitions, dtype=np.int64)

    for vertex, parts in vertex_partitions.items():
        count = len(parts)
        if count == 0:
            continue  # isolated vertex: never materialised in any partition
        total_replicas += count
        if count == 1:
            non_cut += 1
        else:
            cut += 1
            comm_cost += count
        master = master_partition(vertex, num_partitions)
        for part in parts:
            vertices_per_partition[part] += 1
            if part == master:
                vertices_to_same += 1
            else:
                vertices_to_other += 1

    placed_vertices = non_cut + cut
    replication_factor = (total_replicas / placed_vertices) if placed_vertices else 0.0
    max_partition_vertices = int(vertices_per_partition.max()) if num_partitions else 0
    largest_edge_fraction = (max_edges / num_edges) if num_edges else 0.0
    largest_vertex_fraction = (
        max_partition_vertices / placed_vertices if placed_vertices else 0.0
    )

    return PartitioningMetrics(
        strategy=assignment.strategy_name,
        num_partitions=num_partitions,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        balance=float(balance),
        non_cut=non_cut,
        cut=cut,
        comm_cost=comm_cost,
        part_stdev=part_stdev,
        total_replicas=total_replicas,
        replication_factor=float(replication_factor),
        vertices_to_same=vertices_to_same,
        vertices_to_other=vertices_to_other,
        max_partition_edges=max_edges,
        mean_partition_edges=float(mean_edges),
        max_partition_vertices=max_partition_vertices,
        largest_edge_fraction=float(largest_edge_fraction),
        largest_vertex_fraction=float(largest_vertex_fraction),
    )


class SeedRouting(NamedTuple):
    """The seed routing table's two dicts."""

    #: ``{vertex: sorted partitions holding a copy}`` for every graph vertex.
    replicas: Dict[int, Tuple[int, ...]]
    #: ``{vertex: master partition}`` for every graph vertex.
    masters: Dict[int, int]

    def sync_message_count(self, vertex: int) -> int:
        """Messages that push the master value of ``vertex`` to its
        replicas (the master partition does not message itself)."""
        return sum(1 for p in self.replicas[vertex] if p != self.masters[vertex])


def routing_from_vertex_partitions(
    num_partitions: int, vertex_partitions: Dict[int, frozenset]
) -> SeedRouting:
    """The seed dict-walking routing constructor, over a
    :func:`vertex_partitions_reference` dict."""
    replicas = {vertex: tuple(sorted(parts)) for vertex, parts in vertex_partitions.items()}
    masters = {vertex: master_partition(vertex, num_partitions) for vertex in replicas}
    return SeedRouting(replicas, masters)


def routing_views(table: RoutingTable, all_vertex_ids: np.ndarray) -> SeedRouting:
    """``table`` read back as the seed's dicts: replicas from its
    membership, masters from its ``master_of_placed`` (an isolated vertex
    has no entry there, so it is hashed directly, as the seed did)."""
    placed = dict(zip(table.membership.vertices.tolist(), table.master_of_placed.tolist()))
    ids = np.asarray(all_vertex_ids)
    masters = {
        v: placed[v] if v in placed else master_partition(v, table.num_partitions)
        for v in ids.tolist()
    }
    return SeedRouting(membership_dict(table.membership, ids, factory=tuple), masters)
