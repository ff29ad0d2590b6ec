"""Unit tests for the vertex routing table."""

import numpy as np

from repro.core.graph import Graph
from repro.engine.cluster import paper_cluster
from repro.engine.routing import RoutingTable
from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.base import EdgePartitionAssignment
from repro.partitioning.registry import make_partitioner
from pregel_oracles import master_partition, routing_views, vertex_partitions_reference


def _manual(graph, num_partitions, placement):
    return EdgePartitionAssignment(graph, num_partitions, np.asarray(placement), "manual")


def _sync_counts(routing, num_partitions):
    """Per dense vertex index, the replicas the broadcast pushes to."""
    offsets, _, _ = routing.broadcast_plan(paper_cluster().executor_map(num_partitions))
    return np.diff(offsets)


class TestRoutingTable:
    def test_replicas_match_assignment_membership(self, small_social_graph):
        assignment = make_partitioner("RVC").assign(small_social_graph, 8)
        routing = RoutingTable.from_assignment(assignment)
        replicas = routing_views(routing, small_social_graph.vertex_ids).replicas
        for vertex, parts in vertex_partitions_reference(assignment).items():
            assert set(replicas[vertex]) == set(parts)
            assert len(replicas[vertex]) == len(parts)

    def test_masters_are_hash_assigned(self, small_social_graph):
        assignment = make_partitioner("1D").assign(small_social_graph, 8)
        routing = RoutingTable.from_assignment(assignment)
        for vertex, master in zip(
            routing.membership.vertices.tolist(), routing.master_of_placed.tolist()
        ):
            assert master == master_partition(vertex, 8)

    def test_sync_message_count_excludes_master(self):
        graph = Graph([0, 0, 0], [1, 2, 3])
        assignment = _manual(graph, 4, [0, 1, 2])
        routing = RoutingTable.from_assignment(assignment)
        hub_master = master_partition(0, 4)
        expected = sum(1 for p in (0, 1, 2) if p != hub_master)
        assert _sync_counts(routing, 4)[0] == expected
        assert _sync_counts(routing, 4)[0] in (2, 3)

    def test_unknown_vertex_has_no_replicas(self, triangle_graph):
        assignment = make_partitioner("RVC").assign(triangle_graph, 2)
        routing = RoutingTable.from_assignment(assignment)
        assert 999 not in routing.membership.vertices.tolist()
        assert 999 not in routing_views(routing, triangle_graph.vertex_ids).replicas

    def test_total_sync_messages_close_to_comm_cost(self, small_social_graph):
        # The replica broadcast the engine performs each superstep is what
        # the CommCost metric approximates: summed over all vertices the
        # two quantities differ only by the master-held replicas.
        assignment = make_partitioner("CRVC").assign(small_social_graph, 8)
        routing = RoutingTable.from_assignment(assignment)
        metrics = compute_metrics(assignment)
        total_sync = int(_sync_counts(routing, 8).sum())
        assert total_sync <= metrics.total_replicas
        assert total_sync >= metrics.comm_cost - metrics.cut - metrics.non_cut
