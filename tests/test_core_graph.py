"""Unit tests for the Graph data model."""

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.errors import GraphValidationError


class TestGraphConstruction:
    def test_basic_counts(self, triangle_graph):
        assert triangle_graph.num_vertices == 3
        assert triangle_graph.num_edges == 3
        assert len(triangle_graph) == 3

    def test_from_edges_matches_direct_construction(self):
        pairs = [(0, 1), (1, 2), (2, 0)]
        assert Graph.from_edges(pairs).edge_set() == Graph([0, 1, 2], [1, 2, 0]).edge_set()

    def test_from_edges_empty(self):
        graph = Graph.from_edges([])
        assert graph.num_edges == 0
        assert graph.num_vertices == 0

    def test_explicit_isolated_vertices_are_counted(self):
        graph = Graph([0], [1], vertices=[5, 6])
        assert graph.num_vertices == 4
        assert 5 in graph.vertex_ids.tolist()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(GraphValidationError):
            Graph([0, 1], [1])

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphValidationError):
            Graph([-1], [0])
        with pytest.raises(GraphValidationError):
            Graph([0], [1], vertices=[-3])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(GraphValidationError):
            Graph(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_duplicate_edges_preserved(self):
        graph = Graph([0, 0], [1, 1])
        assert graph.num_edges == 2
        assert graph.edge_set() == {(0, 1)}


class TestGraphAccessors:
    def test_vertex_ids_sorted_unique(self):
        graph = Graph([5, 3, 5], [3, 7, 7])
        assert graph.vertex_ids.tolist() == [3, 5, 7]

    def test_edge_iteration(self, triangle_graph):
        assert list(triangle_graph.edge_pairs()) == [(0, 1), (1, 2), (2, 0)]

    def test_edge_set(self, triangle_graph):
        assert triangle_graph.edge_set() == {(0, 1), (1, 2), (2, 0)}

    def test_arrays_are_read_only_views(self):
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 0], dtype=np.int64)
        graph = Graph(src, dst)
        for array in (graph.src, graph.dst, graph.vertex_ids):
            with pytest.raises(ValueError):
                array[0] = 1
        # Zero-copy, and the caller's arrays keep their own flags.
        assert np.shares_memory(graph.src, src)
        src[0] = 5
        dst[0] = 5
        assert graph.src[0] == 5


class TestDegrees:
    def test_out_and_in_degrees(self, triangle_graph):
        assert triangle_graph.out_degrees() == {0: 1, 1: 1, 2: 1}
        assert triangle_graph.in_degrees() == {0: 1, 1: 1, 2: 1}

    def test_degrees_include_zero_entries(self):
        graph = Graph([0, 0], [1, 2])
        assert graph.out_degrees() == {0: 2, 1: 0, 2: 0}
        assert graph.in_degrees() == {0: 0, 1: 1, 2: 1}
        assert graph.degrees() == {0: 2, 1: 1, 2: 1}

    def test_degree_of_isolated_vertex_is_zero(self):
        graph = Graph([0], [1], vertices=[9])
        assert graph.out_degrees()[9] == 0
        assert graph.in_degrees()[9] == 0


class TestTransformations:
    def test_canonicalized_removes_duplicates_loops_and_direction(self):
        graph = Graph([0, 1, 2, 2, 3], [1, 0, 2, 3, 2])
        canonical = graph.canonicalized()
        assert canonical.edge_set() == {(0, 1), (2, 3)}

    def test_canonicalized_on_loop_only_graph(self):
        graph = Graph([4], [4])
        assert graph.canonicalized().num_edges == 0

    def test_adjacency_directions(self):
        graph = Graph([0, 1], [1, 2])
        assert graph.adjacency("out")[0] == {1}
        assert graph.adjacency("in")[2] == {1}
        assert graph.adjacency("both")[1] == {0, 2}

    def test_adjacency_rejects_bad_direction(self, triangle_graph):
        with pytest.raises(GraphValidationError):
            triangle_graph.adjacency("sideways")
