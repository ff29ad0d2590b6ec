"""Unit tests for graph statistics, validated against networkx where possible."""

import math

import networkx as nx
import pytest

from repro.core.graph import Graph
from repro.core import properties as props


def _to_nx_directed(graph: Graph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(graph.vertex_ids.tolist())
    g.add_edges_from(graph.edge_pairs())
    return g


def _to_nx_undirected(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertex_ids.tolist())
    g.add_edges_from(graph.edge_pairs())
    g.remove_edges_from(nx.selfloop_edges(g))
    return g


class TestSymmetry:
    def test_fully_symmetric_graph(self, two_component_graph):
        assert props.symmetry_percent(two_component_graph) == 100.0

    def test_directed_triangle_has_no_reciprocated_edges(self, triangle_graph):
        assert props.symmetry_percent(triangle_graph) == 0.0

    def test_partial_symmetry(self):
        graph = Graph([0, 1, 1], [1, 0, 2])
        assert props.symmetry_percent(graph) == pytest.approx(100.0 * 2 / 3)

    def test_empty_graph_is_symmetric_by_convention(self):
        assert props.symmetry_percent(Graph([], [])) == 100.0

    def test_self_loop_counts_as_symmetric(self):
        graph = Graph([0], [0])
        assert props.symmetry_percent(graph) == 100.0


class TestLeafVertices:
    def test_zero_in_and_out_percent(self):
        graph = Graph([0, 1], [1, 2])
        assert props.zero_in_percent(graph) == pytest.approx(100.0 / 3)
        assert props.zero_out_percent(graph) == pytest.approx(100.0 / 3)

    def test_symmetric_graph_has_no_leaves(self, two_component_graph):
        assert props.zero_in_percent(two_component_graph) == 0.0
        assert props.zero_out_percent(two_component_graph) == 0.0

    def test_empty_graph(self):
        empty = Graph([], [])
        assert props.zero_in_percent(empty) == 0.0
        assert props.zero_out_percent(empty) == 0.0


class TestTriangles:
    def test_directed_triangle_counts_once(self, triangle_graph):
        assert props.triangle_count(triangle_graph) == 1

    def test_clique_ring_matches_networkx(self, clique_ring_graph):
        expected = sum(nx.triangles(_to_nx_undirected(clique_ring_graph)).values()) // 3
        assert props.triangle_count(clique_ring_graph) == expected

    def test_social_graph_matches_networkx(self, small_social_graph):
        expected = sum(nx.triangles(_to_nx_undirected(small_social_graph)).values()) // 3
        assert props.triangle_count(small_social_graph) == expected

    def test_triangle_free_graph(self, small_road_graph):
        nx_count = sum(nx.triangles(_to_nx_undirected(small_road_graph)).values()) // 3
        assert props.triangle_count(small_road_graph) == nx_count


class TestConnectivity:
    def test_weak_components_labels_use_min_vertex_id(self, two_component_graph):
        labels = props.weakly_connected_components(two_component_graph)
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[10] == labels[11] == 10

    def test_weak_component_count_matches_networkx(self, small_social_graph):
        expected = nx.number_weakly_connected_components(_to_nx_directed(small_social_graph))
        assert props.num_weakly_connected_components(small_social_graph) == expected

    def test_road_graph_component_count(self, small_road_graph):
        expected = nx.number_weakly_connected_components(_to_nx_directed(small_road_graph))
        assert props.num_weakly_connected_components(small_road_graph) == expected

    def test_empty_graph_has_zero_components(self):
        assert props.num_weakly_connected_components(Graph([], [])) == 0


class TestDiameter:
    def test_disconnected_graph_has_infinite_diameter(self, two_component_graph):
        assert math.isinf(props.diameter(two_component_graph))

    def test_path_graph_diameter(self):
        graph = Graph([0, 1, 1, 2], [1, 0, 2, 1])
        assert props.diameter(graph) == 2.0

    def test_matches_networkx_on_connected_graph(self, clique_ring_graph):
        expected = nx.diameter(_to_nx_undirected(clique_ring_graph))
        assert props.diameter(clique_ring_graph) == float(expected)

    def test_double_sweep_bound_is_close_on_larger_graph(self, small_social_graph):
        if props.num_weakly_connected_components(small_social_graph) != 1:
            pytest.skip("fixture graph not connected for this seed")
        exact = nx.diameter(_to_nx_undirected(small_social_graph))
        approx = props.diameter(small_social_graph, exact_limit=10)
        assert approx <= exact
        assert approx >= exact / 2

    def test_empty_graph_diameter_zero(self):
        assert props.diameter(Graph([], [])) == 0.0


class TestDistributions:
    def test_degree_histogram_sums_to_vertex_count(self, small_social_graph):
        histogram = props.degree_histogram(small_social_graph, direction="in")
        assert sum(histogram.values()) == small_social_graph.num_vertices

    def test_degree_histogram_out_direction(self):
        graph = Graph([0, 0, 1], [1, 2, 2])
        assert props.degree_histogram(graph, "out") == {2: 1, 1: 1, 0: 1}

    def test_degree_histogram_rejects_bad_direction(self, triangle_graph):
        with pytest.raises(ValueError):
            props.degree_histogram(triangle_graph, "up")

    def test_degree_ratio_cdf_monotone_and_bounded(self, small_social_graph):
        cdf = props.degree_ratio_cdf(small_social_graph)
        fractions = [fraction for _, fraction in cdf]
        assert all(0.0 < f <= 1.0 for f in fractions)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_degree_ratio_cdf_for_symmetric_graph_is_step_at_one(self, two_component_graph):
        cdf = props.degree_ratio_cdf(two_component_graph)
        assert cdf == [(1.0, 1.0)]

    def test_degree_ratio_cdf_at_explicit_points(self):
        graph = Graph([0, 1], [1, 2])  # ratios: 0 -> inf, 1 -> 1, 2 -> 0
        cdf = props.degree_ratio_cdf(graph, points=[0.5, 1.0, 100.0])
        assert cdf[0][1] == pytest.approx(1 / 3)
        assert cdf[1][1] == pytest.approx(2 / 3)
        assert cdf[2][1] == pytest.approx(2 / 3)

    def test_degree_ratio_cdf_empty_graph(self):
        assert props.degree_ratio_cdf(Graph([], [])) == []


class TestSummary:
    def test_summarize_fields(self, two_component_graph):
        summary = props.summarize(two_component_graph, name="toy")
        assert summary.name == "toy"
        assert summary.num_vertices == 5
        assert summary.num_edges == 6
        assert summary.symmetry_percent == 100.0
        assert summary.connected_components == 2
        assert math.isinf(summary.diameter)
        assert summary.size_bytes == 6 * 16

    def test_summary_as_row_keys(self, triangle_graph):
        row = props.summarize(triangle_graph).as_row()
        assert {"dataset", "vertices", "edges", "symm_pct", "triangles", "components"} <= set(row)

    def test_estimated_size_scales_with_edges(self, triangle_graph):
        assert props.estimated_size_bytes(triangle_graph, bytes_per_edge=10) == 30
