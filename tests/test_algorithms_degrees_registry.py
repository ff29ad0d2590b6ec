"""Tests for degree counting on the engine and the algorithm registry."""

import numpy as np
import pytest

from repro.algorithms.degrees import degree_count
from repro.algorithms.pagerank import pagerank
from repro.algorithms.registry import (
    ALGORITHM_NAMES,
    algorithm_metric_of_interest,
    run_algorithm,
)
from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import EngineError


class TestDegreeCount:
    def test_out_degrees_match_graph(self, partitioned_social, small_social_graph):
        result = degree_count(partitioned_social, direction="out")
        assert result.vertex_values == small_social_graph.out_degrees()

    def test_in_degrees_match_graph(self, partitioned_social, small_social_graph):
        result = degree_count(partitioned_social, direction="in")
        assert result.vertex_values == small_social_graph.in_degrees()

    def test_total_degrees_match_graph(self, partitioned_social, small_social_graph):
        result = degree_count(partitioned_social, direction="both")
        assert result.vertex_values == small_social_graph.degrees()

    def test_invalid_direction_rejected(self, partitioned_social):
        with pytest.raises(EngineError):
            degree_count(partitioned_social, direction="sideways")

    def test_single_superstep(self, partitioned_social):
        result = degree_count(partitioned_social)
        assert result.num_supersteps == 1
        assert result.simulated_seconds > 0


class TestIterationCounts:
    COUNTS = [float("nan"), float("inf"), float("-inf"), 2.5, True]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_run_algorithm_rejects_non_integral_counts(
        self, name, backend, count, partitioned_social
    ):
        with pytest.raises(EngineError, match="num_iterations must be an integer"):
            run_algorithm(name, partitioned_social, num_iterations=count, backend=backend)

    @pytest.mark.parametrize("count", COUNTS)
    def test_pagerank_rejects_non_integral_counts(self, count, partitioned_social):
        # At inf PageRank used to never return.
        with pytest.raises(EngineError, match="num_iterations must be an integer"):
            pagerank(partitioned_social, num_iterations=count)

    def test_numpy_integers_are_counts(self, partitioned_social):
        result = run_algorithm("PR", partitioned_social, num_iterations=np.int64(2))
        assert result.num_supersteps == 3


class TestAlgorithmRegistry:
    def test_paper_algorithm_names(self):
        assert ALGORITHM_NAMES == ["PR", "CC", "TR", "SSSP"]

    def test_metric_of_interest_matches_paper_findings(self):
        assert algorithm_metric_of_interest("PR") == "comm_cost"
        assert algorithm_metric_of_interest("CC") == "comm_cost"
        assert algorithm_metric_of_interest("SSSP") == "comm_cost"
        assert algorithm_metric_of_interest("TR") == "cut"

    def test_metric_of_interest_unknown_algorithm(self):
        with pytest.raises(EngineError):
            algorithm_metric_of_interest("BFS")

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_run_algorithm_dispatch(self, name, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 6)
        result = run_algorithm(name, pgraph, num_iterations=3)
        assert result.simulated_seconds > 0
        assert len(result.vertex_values) == small_social_graph.num_vertices

    def test_run_algorithm_case_insensitive(self, partitioned_social):
        assert run_algorithm("pr", partitioned_social, num_iterations=2).algorithm == "PageRank"

    def test_run_algorithm_unknown_name(self, partitioned_social):
        with pytest.raises(EngineError):
            run_algorithm("BFS", partitioned_social)

    def test_run_algorithm_sssp_with_explicit_landmarks(self, partitioned_social):
        landmark = int(partitioned_social.graph.vertex_ids[0])
        result = run_algorithm("SSSP", partitioned_social, landmarks=[landmark])
        assert result.vertex_values[landmark] == {landmark: 0}
