"""Unit tests for the array-native VertexMembership representation."""

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.partitioning.base import EdgePartitionAssignment
from repro.partitioning.membership import VertexMembership, master_partition_array
from repro.partitioning.registry import make_partitioner
from pregel_oracles import master_partition, membership_dict, vertex_partitions_reference


def _membership(graph, num_partitions, placement):
    assignment = EdgePartitionAssignment(
        graph, num_partitions, np.asarray(placement), strategy_name="manual"
    )
    return assignment.membership()


class TestConstruction:
    def test_pairs_are_deduped_and_sorted(self):
        # Star 0 -> {1, 2}; hub copies in partitions 0 and 1.
        graph = Graph([0, 0], [1, 2])
        membership = _membership(graph, 2, [0, 1])
        assert membership.pair_vertex.tolist() == [0, 0, 1, 2]
        assert membership.pair_partition.tolist() == [0, 1, 0, 1]
        assert membership.vertices.tolist() == [0, 1, 2]
        assert membership.offsets.tolist() == [0, 2, 3, 4]
        assert membership.counts.tolist() == [2, 1, 1]

    def test_duplicate_edges_and_self_loops_collapse(self):
        graph = Graph([3, 3, 3, 5], [3, 3, 7, 5])
        membership = _membership(graph, 4, [1, 1, 1, 2])
        assert membership.pair_vertex.tolist() == [3, 5, 7]
        assert membership.pair_partition.tolist() == [1, 2, 1]

    def test_sparse_vertex_ids_survive_encoding(self):
        huge = 2**61
        graph = Graph([huge, 0], [huge + 1, huge])
        membership = _membership(graph, 1000, [999, 0])
        assert membership.vertices.tolist() == [0, huge, huge + 1]
        assert membership_dict(membership, np.array([huge]), tuple) == {huge: (0, 999)}

    def test_empty_graph(self):
        membership = _membership(Graph([], [], vertices=[5]), 3, [])
        assert membership.num_pairs == 0
        assert membership.num_placed_vertices == 0
        assert membership.vertices_per_partition().tolist() == [0, 0, 0]
        assert membership_dict(membership, np.array([5])) == {5: frozenset()}

    def test_from_slots_turns_partition_major_slots_vertex_major(self):
        # Partition 0 mirrors {5, 2**62}, partition 1 {0, 5}, partition 2 nothing.
        slots = np.array([5, 2**62, 0, 5], dtype=np.int64)
        membership = VertexMembership.from_slots(slots, np.array([0, 2, 4, 4]), 3)
        assert membership.pair_vertex.tolist() == [0, 5, 5, 2**62]
        assert membership.pair_partition.tolist() == [1, 0, 1, 0]
        assert membership.vertices_per_partition().tolist() == [2, 2, 0]

    def test_cached_on_assignment(self, small_social_graph):
        assignment = make_partitioner("RVC").assign(small_social_graph, 8)
        assert assignment.membership() is assignment.membership()


class TestAccessors:
    def test_masters_match_scalar_hash(self, small_social_graph):
        assignment = make_partitioner("2D").assign(small_social_graph, 9)
        membership = assignment.membership()
        for vertex, master in zip(
            membership.vertices.tolist(), membership.masters.tolist()
        ):
            assert master == master_partition(vertex, 9)

    def test_vertices_of_partition_sorted_unique(self, small_social_graph):
        assignment = make_partitioner("CRVC").assign(small_social_graph, 6)
        membership = assignment.membership()
        for partition in range(6):
            mirrored = membership.vertices_of_partition(partition)
            edge_ids = assignment.edge_ids_of_partition(partition)
            expected = np.unique(
                np.concatenate(
                    [small_social_graph.src[edge_ids], small_social_graph.dst[edge_ids]]
                )
            )
            assert np.array_equal(mirrored, expected)

    def test_to_dict_matches_reference(self, small_social_graph):
        assignment = make_partitioner("1D").assign(small_social_graph, 8)
        expected = vertex_partitions_reference(assignment)
        got = membership_dict(assignment.membership(), small_social_graph.vertex_ids)
        assert got == expected
        assert list(got) == list(expected)  # same (sorted) key order


class TestMasterPartitionArray:
    def test_matches_scalar_for_range(self):
        vertices = np.arange(200, dtype=np.int64)
        array = master_partition_array(vertices, 16)
        assert array.tolist() == [master_partition(int(v), 16) for v in vertices]

    @pytest.mark.parametrize("num_partitions", [1, 7, 128])
    def test_in_range(self, num_partitions):
        array = master_partition_array(np.arange(50), num_partitions)
        assert array.min() >= 0
        assert array.max() < num_partitions
