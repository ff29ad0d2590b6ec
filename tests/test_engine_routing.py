"""Unit tests for the vertex routing table."""

import numpy as np

from repro.core.graph import Graph
from repro.engine.routing import RoutingTable
from repro.metrics.partition_metrics import compute_metrics, master_partition
from repro.partitioning.base import EdgePartitionAssignment
from repro.partitioning.registry import make_partitioner


def _manual(graph, num_partitions, placement):
    return EdgePartitionAssignment(graph, num_partitions, np.asarray(placement), "manual")


class TestRoutingTable:
    def test_replicas_match_assignment_membership(self, small_social_graph):
        assignment = make_partitioner("RVC").assign(small_social_graph, 8)
        routing = RoutingTable.from_assignment(assignment)
        membership = assignment.vertex_partitions_reference()
        for vertex, parts in membership.items():
            assert set(routing.replica_partitions(vertex)) == set(parts)
            assert routing.replication_count(vertex) == len(parts)

    def test_masters_are_hash_assigned(self, small_social_graph):
        assignment = make_partitioner("1D").assign(small_social_graph, 8)
        routing = RoutingTable.from_assignment(assignment)
        for vertex in small_social_graph.vertex_ids.tolist():
            assert routing.master_of(vertex) == master_partition(vertex, 8)

    def test_sync_message_count_excludes_master(self):
        graph = Graph([0, 0, 0], [1, 2, 3])
        assignment = _manual(graph, 4, [0, 1, 2])
        routing = RoutingTable.from_assignment(assignment)
        hub_master = routing.master_of(0)
        expected = sum(1 for p in routing.replica_partitions(0) if p != hub_master)
        assert routing.sync_message_count(0) == expected
        assert routing.sync_message_count(0) in (2, 3)

    def test_unknown_vertex_has_no_replicas(self, triangle_graph):
        assignment = make_partitioner("RVC").assign(triangle_graph, 2)
        routing = RoutingTable.from_assignment(assignment)
        assert routing.replica_partitions(999) == ()
        assert routing.replication_count(999) == 0

    def test_total_sync_messages_close_to_comm_cost(self, small_social_graph):
        # The replica broadcast the engine performs each superstep is what
        # the CommCost metric approximates: summed over all vertices the
        # two quantities differ only by the master-held replicas.
        assignment = make_partitioner("CRVC").assign(small_social_graph, 8)
        routing = RoutingTable.from_assignment(assignment)
        metrics = compute_metrics(assignment)
        total_sync = sum(routing.sync_message_count(v) for v in routing.replicas)
        assert total_sync <= metrics.total_replicas
        assert total_sync >= metrics.comm_cost - metrics.cut - metrics.non_cut
