"""Unit tests for PartitionedGraph."""

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import EngineError
from repro.partitioning.hash_partitioners import EdgePartition2D


class TestPartitionedGraph:
    def test_partition_by_name_and_by_instance_agree(self, small_social_graph):
        by_name = PartitionedGraph.partition(small_social_graph, "2D", 9)
        by_instance = PartitionedGraph.partition(small_social_graph, EdgePartition2D(), 9)
        assert np.array_equal(by_name.assignment.partition_of, by_instance.assignment.partition_of)

    def test_invalid_strategy_type_rejected(self, small_social_graph):
        with pytest.raises(EngineError):
            PartitionedGraph.partition(small_social_graph, 42, 4)

    def test_partitions_cover_all_edges_exactly_once(self, partitioned_social, small_social_graph):
        edge_bounds = partitioned_social.triplets().edge_bounds
        assert edge_bounds[0] == 0 and edge_bounds[-1] == small_social_graph.num_edges
        assert (np.diff(edge_bounds) >= 0).all()
        assert edge_bounds.size == partitioned_social.num_partitions + 1

    def test_partition_contents_match_assignment(self, partitioned_social):
        placement = partitioned_social.assignment.partition_of.tolist()
        graph = partitioned_social.graph
        trip = partitioned_social.triplets()
        for pid in range(partitioned_social.num_partitions):
            expected = [
                (s, d) for (s, d), p in zip(graph.edge_pairs(), placement) if p == pid
            ]
            edges = slice(trip.edge_bounds[pid], trip.edge_bounds[pid + 1])
            got = zip(trip.vertex_ids[trip.src[edges]], trip.vertex_ids[trip.dst[edges]])
            assert [(int(s), int(d)) for s, d in got] == expected

    def test_metrics_and_routing_are_cached(self, partitioned_social):
        assert partitioned_social.metrics is partitioned_social.metrics
        assert partitioned_social.routing is partitioned_social.routing
        assert partitioned_social.triplets() is partitioned_social.triplets()

    def test_metrics_strategy_name_propagates(self, partitioned_social):
        assert partitioned_social.metrics.strategy == "CRVC"
        assert partitioned_social.strategy_name == "CRVC"

    def test_dataset_bytes_positive(self, partitioned_social):
        assert partitioned_social.dataset_bytes == partitioned_social.graph.num_edges * 16

    def test_more_partitions_than_edges_is_allowed(self):
        graph = Graph([0, 1], [1, 2])
        pgraph = PartitionedGraph.partition(graph, "RVC", 16)
        edge_bounds = pgraph.triplets().edge_bounds
        assert edge_bounds.size == 17 and edge_bounds[-1] == 2
