"""Unit tests for the strategy base class and assignment object."""

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.errors import PartitioningError
from repro.partitioning.base import EdgePartitionAssignment, LoadLevels, PartitionStrategy
from repro.partitioning.hash_partitioners import RandomVertexCut
from pregel_oracles import vertex_partitions_reference


class ModuloStrategy(PartitionStrategy):
    """Toy strategy used to exercise the scalar fallback path."""

    name = "toy-modulo"

    def partition_edge(self, src, dst, num_partitions):
        return (src + dst) % num_partitions


class TestAssignmentValidation:
    def test_length_mismatch_rejected(self, triangle_graph):
        with pytest.raises(PartitioningError):
            EdgePartitionAssignment(triangle_graph, 2, np.array([0, 1]))

    def test_out_of_range_partition_rejected(self, triangle_graph):
        with pytest.raises(PartitioningError):
            EdgePartitionAssignment(triangle_graph, 2, np.array([0, 1, 2]))
        with pytest.raises(PartitioningError):
            EdgePartitionAssignment(triangle_graph, 2, np.array([0, -1, 1]))

    def test_zero_partitions_rejected_by_assign(self, triangle_graph):
        with pytest.raises(PartitioningError):
            RandomVertexCut().assign(triangle_graph, 0)


class TestAssignmentAccessors:
    def test_edges_per_partition_sums_to_total(self, small_social_graph):
        assignment = RandomVertexCut().assign(small_social_graph, 7)
        counts = assignment.edges_per_partition()
        assert counts.sum() == small_social_graph.num_edges
        assert counts.shape == (7,)

    def test_edge_ids_of_partition_partition_membership(self, small_social_graph):
        assignment = RandomVertexCut().assign(small_social_graph, 5)
        for partition_id in range(5):
            ids = assignment.edge_ids_of_partition(partition_id)
            assert (assignment.partition_of[ids] == partition_id).all()

    def test_vertex_partitions_cover_every_endpoint(self, triangle_graph):
        assignment = RandomVertexCut().assign(triangle_graph, 2)
        membership = vertex_partitions_reference(assignment)
        assert set(membership) == {0, 1, 2}
        assert all(parts for parts in membership.values())

    def test_membership_cached(self, triangle_graph):
        assignment = RandomVertexCut().assign(triangle_graph, 2)
        assert assignment.membership() is assignment.membership()

    def test_replica_counts(self):
        graph = Graph([0, 0], [1, 2])
        assignment = EdgePartitionAssignment(graph, 2, np.array([0, 1]), strategy_name="manual")
        membership = assignment.membership()
        assert membership.vertices.tolist() == [0, 1, 2]
        assert membership.counts.tolist() == [2, 1, 1]  # vertex 0 touches both partitions

    def test_isolated_vertices_have_empty_membership(self):
        graph = Graph([0], [1], vertices=[9])
        assignment = RandomVertexCut().assign(graph, 4)
        assert vertex_partitions_reference(assignment)[9] == frozenset()
        assert 9 not in assignment.membership().vertices.tolist()


class TestScalarFallback:
    def test_assign_array_default_uses_partition_edge(self, small_social_graph):
        strategy = ModuloStrategy()
        assignment = strategy.assign(small_social_graph, 4)
        expected = [
            (s + d) % 4 for s, d in small_social_graph.edge_pairs()
        ]
        assert assignment.partition_of.tolist() == expected

    def test_empty_graph_assignment(self):
        assignment = ModuloStrategy().assign(Graph([], []), 3)
        assert assignment.partition_of.size == 0
        assert assignment.edges_per_partition().tolist() == [0, 0, 0]


def _levels(loads):
    levels = LoadLevels(len(loads))
    for part, load in enumerate(loads):
        for _ in range(load):
            levels.add(part)
    return levels


class TestLoadLevels:
    """The candidate rule the streaming placers share: score the endpoints'
    partitions, then only the best of the rest, first maximum by id."""

    NONE = frozenset()
    FLAT = (0.0, 0, 1.0)  # balance weight * (top - load) / scale == 0.0
    STEEP = (1.0, 0, 1.0)  # balance == -load

    def test_bounds_and_least_loaded(self):
        levels = _levels([2, 0, 1, 0])
        assert levels.loads == [2, 0, 1, 0]
        assert levels.bounds() == (0, 2)
        assert levels.least_loaded() == (0, 1)
        assert levels.least_loaded({1, 3}) == (1, 2)

    def test_tying_candidates_go_to_the_lowest_id(self):
        # {9, 2} iterates 9 first; the scan must still keep partition 2.
        assert list({9, 2}) == [9, 2]
        assert LoadLevels(10).best({9, 2}, self.NONE, 1.0, 0.0, *self.FLAT) == 2

    def test_a_less_loaded_partition_tying_a_candidate_wins_on_id(self):
        levels = _levels([0, 2])
        # Partition 1 scores 2.0 - 2.0 == 0.0, partition 0 scores -0.0.
        assert levels.best({1}, self.NONE, 2.0, 0.0, *self.STEEP) == 0
        assert levels.best({1}, self.NONE, 2.5, 0.0, *self.STEEP) == 1

    def test_balance_ties_across_load_levels_go_to_the_lowest_id(self):
        levels = _levels([1, 0, 0])
        # Partition 1 holds an endpoint but loses; of the rest, partition 2
        # is the least loaded, and partition 0 wins only when its level
        # has the same balance.
        assert levels.best({1}, self.NONE, -1.0, 0.0, *self.FLAT) == 0
        assert levels.best({1}, self.NONE, -1.0, 0.0, *self.STEEP) == 2

    def test_every_partition_an_endpoints(self):
        levels = _levels([3, 1])
        assert levels.best({0}, {1}, 1.0, 1.0, *self.STEEP) == 1
