"""Multi-source SSSP and the landmark-distance matrix behind ``repro serve``.

The serving layer's batching contract rests on two equivalences proved
here: one multi-source Pregel sweep returns exactly what N single-source
sweeps return, and the landmark matrix's triangle-inequality estimates
upper-bound (and at landmarks equal) the exact distances.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.shortest_paths import (
    build_landmark_matrix,
    choose_landmarks,
    multi_source_distances,
    shortest_paths,
)
from repro.core.graph import Graph
from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import EngineError
from pregel_oracles import multi_source_distances_scalar


def _nx_distances_from(graph, source):
    """Hop distance FROM the source along edge direction (forward)."""
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(graph.vertex_ids.tolist())
    nx_graph.add_edges_from(graph.edge_pairs())
    return nx.single_source_shortest_path_length(nx_graph, source)


class TestMultiSourceCorrectness:
    def test_chain_forward_distances(self):
        graph = Graph([0, 1, 2], [1, 2, 3])
        pgraph = PartitionedGraph.partition(graph, "RVC", 2)
        result = multi_source_distances(pgraph, [0])
        assert result.vertex_values[0] == {0: 0}
        assert result.vertex_values[1] == {0: 1}
        assert result.vertex_values[2] == {0: 2}
        assert result.vertex_values[3] == {0: 3}

    def test_matches_networkx(self, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 8)
        sources = choose_landmarks(small_social_graph, count=3, seed=5)
        result = multi_source_distances(pgraph, sources)
        for source in sources:
            expected = _nx_distances_from(small_social_graph, source)
            for vertex, value in result.vertex_values.items():
                assert value.get(source) == expected.get(vertex)

    def test_batched_identical_to_serial_runs(self, small_social_graph):
        """The serving guarantee: one N-source sweep == N separate sweeps."""
        pgraph = PartitionedGraph.partition(small_social_graph, "2D", 8)
        sources = choose_landmarks(small_social_graph, count=4, seed=11)
        batched = multi_source_distances(pgraph, sources).vertex_values
        for source in sources:
            serial = multi_source_distances(pgraph, [source]).vertex_values
            for vertex, value in serial.items():
                assert batched[vertex].get(source) == value.get(source)

    def test_scalar_and_vectorized_paths_identical(self, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "DC", 8)
        sources = choose_landmarks(small_social_graph, count=3, seed=2)
        scalar = multi_source_distances_scalar(pgraph, sources)
        array = multi_source_distances(pgraph, sources)
        assert scalar.vertex_values == array.vertex_values
        assert scalar.report.supersteps == array.report.supersteps

    def test_partitioning_invariant(self, small_social_graph):
        sources = choose_landmarks(small_social_graph, count=2, seed=9)
        maps = [
            multi_source_distances(
                PartitionedGraph.partition(small_social_graph, strategy, 8), sources
            ).vertex_values
            for strategy in ("RVC", "Hybrid")
        ]
        assert maps[0] == maps[1]

    def test_duplicate_sources_deduplicated(self, two_component_graph):
        pgraph = PartitionedGraph.partition(two_component_graph, "RVC", 2)
        result = multi_source_distances(pgraph, [0, 0, 1, 0])
        assert result.vertex_values[0] == {0: 0, 1: 1}
        assert result.vertex_values[10] == {}


class TestMultiSourceValidation:
    def test_empty_sources_rejected(self, partitioned_social):
        with pytest.raises(EngineError):
            multi_source_distances(partitioned_social, [])

    def test_unknown_source_rejected(self, partitioned_social):
        with pytest.raises(EngineError, match="not present"):
            multi_source_distances(partitioned_social, [10**9])


class TestChooseLandmarks:
    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, True, 0, -3])
    def test_count_must_be_a_positive_integer(self, small_social_graph, count):
        with pytest.raises(EngineError, match="landmark count"):
            choose_landmarks(small_social_graph, count=count)

    def test_seed_none_matches_historical_default(self, small_social_graph):
        assert choose_landmarks(small_social_graph, count=4, seed=None) == (
            choose_landmarks(small_social_graph, count=4, seed=7)
        )


class TestLandmarkMatrix:
    @pytest.fixture
    def matrix_and_graph(self, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 8)
        landmarks = choose_landmarks(small_social_graph, count=4, seed=3)
        return build_landmark_matrix(pgraph, landmarks), small_social_graph, landmarks

    def test_directions_match_single_sweeps(self, matrix_and_graph):
        matrix, graph, landmarks = matrix_and_graph
        pgraph = PartitionedGraph.partition(graph, "CRVC", 8)
        backward = shortest_paths(pgraph, landmarks).vertex_values
        forward = multi_source_distances(pgraph, landmarks).vertex_values
        for vertex in graph.vertex_ids.tolist():
            row = matrix.to_landmark[matrix.index_of(vertex)]
            column = matrix.from_landmark[:, matrix.index_of(vertex)]
            for j, landmark in enumerate(matrix.landmarks):
                expected_to = backward[vertex].get(landmark)
                expected_from = forward[vertex].get(landmark)
                assert (expected_to if expected_to is not None else float("inf")) == row[j]
                assert (expected_from if expected_from is not None else float("inf")) == column[j]

    def test_duplicate_landmarks_collapse(self, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 8)
        a, b = choose_landmarks(small_social_graph, count=2, seed=3)
        matrix = build_landmark_matrix(pgraph, [b, a, b, a])
        distinct = build_landmark_matrix(pgraph, [b, a])
        assert matrix.landmarks == [b, a]
        assert matrix.num_landmarks == 2
        assert np.array_equal(matrix.to_landmark, distinct.to_landmark)
        assert np.array_equal(matrix.from_landmark, distinct.from_landmark)
        assert matrix.to_landmark.shape == (small_social_graph.num_vertices, 2)
        assert matrix.from_landmark.shape == (2, small_social_graph.num_vertices)

    def test_estimate_upper_bounds_exact_distance(self, matrix_and_graph):
        matrix, graph, landmarks = matrix_and_graph
        vertices = graph.vertex_ids.tolist()
        for source in vertices[::7]:
            exact = _nx_distances_from(graph, source)
            for target in vertices[::5]:
                estimate = matrix.estimate(source, target)
                if estimate is None:
                    continue  # no landmark connects the pair
                assert target in exact, "estimate implies reachability"
                assert estimate >= exact[target]

    def test_estimate_exact_at_landmarks(self, matrix_and_graph):
        """Routes through an endpoint landmark collapse the triangle
        inequality to the true distance."""
        matrix, graph, landmarks = matrix_and_graph
        for landmark in landmarks:
            exact = _nx_distances_from(graph, landmark)
            for target in graph.vertex_ids.tolist()[::5]:
                estimate = matrix.estimate(landmark, target)
                assert estimate == exact.get(target)

    def test_estimate_zero_for_self(self, matrix_and_graph):
        matrix, graph, _ = matrix_and_graph
        vertex = graph.vertex_ids.tolist()[0]
        assert matrix.estimate(vertex, vertex) == 0

    def test_unknown_vertex_rejected(self, matrix_and_graph):
        matrix, _, _ = matrix_and_graph
        with pytest.raises(EngineError, match="not in the graph"):
            matrix.index_of(10**9)
        with pytest.raises(EngineError):
            matrix.estimate(10**9, 0)
