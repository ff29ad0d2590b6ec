"""Correctness and accounting tests for PageRank."""

import networkx as nx
import pytest

from repro.algorithms.pagerank import pagerank
from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import EngineError
from pregel_oracles import reference_pagerank


class TestPageRankCorrectness:
    def test_matches_reference_implementation(self, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "2D", 8)
        result = pagerank(pgraph, num_iterations=8)
        expected = reference_pagerank(small_social_graph, num_iterations=8)
        for vertex, value in expected.items():
            assert result.vertex_values[vertex] == pytest.approx(value, abs=1e-9)

    def test_partitioning_does_not_change_ranks(self, small_social_graph):
        baselines = None
        for strategy in ("RVC", "1D", "DC"):
            pgraph = PartitionedGraph.partition(small_social_graph, strategy, 8)
            values = pagerank(pgraph, num_iterations=5).vertex_values
            if baselines is None:
                baselines = values
            else:
                for vertex in baselines:
                    assert values[vertex] == pytest.approx(baselines[vertex], abs=1e-9)

    def test_ranking_agrees_with_networkx(self, small_social_graph):
        """The top-ranked vertices should be the same as networkx's pagerank."""
        pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 8)
        result = pagerank(pgraph, num_iterations=30)
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(small_social_graph.vertex_ids.tolist())
        nx_graph.add_edges_from(small_social_graph.edge_pairs())
        nx_ranks = nx.pagerank(nx_graph, alpha=0.85, max_iter=200)
        ours_top = sorted(result.vertex_values, key=result.vertex_values.get, reverse=True)[:5]
        nx_top = sorted(nx_ranks, key=nx_ranks.get, reverse=True)[:5]
        assert set(ours_top) & set(nx_top)  # substantial overlap at the top

    def test_sink_vertices_keep_reset_probability(self):
        from repro.core.graph import Graph

        # 0 -> 1, 1 has no outgoing edges, 0 has no incoming edges.
        graph = Graph([0], [1])
        pgraph = PartitionedGraph.partition(graph, "RVC", 2)
        result = pagerank(pgraph, num_iterations=4, reset_prob=0.15)
        assert result.vertex_values[0] == pytest.approx(0.15)
        assert result.vertex_values[1] == pytest.approx(0.15 + 0.85 * 0.15)

    def test_uniform_cycle_has_uniform_ranks(self, triangle_graph):
        pgraph = PartitionedGraph.partition(triangle_graph, "RVC", 2)
        values = pagerank(pgraph, num_iterations=20).vertex_values
        assert values[0] == pytest.approx(values[1]) == pytest.approx(values[2])
        assert values[0] == pytest.approx(1.0)


class TestPageRankValidationAndAccounting:
    def test_invalid_parameters_rejected(self, partitioned_social):
        with pytest.raises(EngineError):
            pagerank(partitioned_social, num_iterations=0)
        with pytest.raises(EngineError):
            pagerank(partitioned_social, reset_prob=1.5)

    def test_runs_requested_number_of_supersteps(self, partitioned_social):
        result = pagerank(partitioned_social, num_iterations=7)
        assert result.num_supersteps == 8  # init superstep + 7 iterations
        assert result.algorithm == "PageRank"

    def test_simulated_time_increases_with_iterations(self, partitioned_social):
        short = pagerank(partitioned_social, num_iterations=2).simulated_seconds
        long = pagerank(partitioned_social, num_iterations=10).simulated_seconds
        assert long > short

    def test_every_superstep_scans_all_edges(self, partitioned_social):
        result = pagerank(partitioned_social, num_iterations=3)
        for record in result.report.supersteps[1:]:
            assert record.edges_scanned == partitioned_social.graph.num_edges
