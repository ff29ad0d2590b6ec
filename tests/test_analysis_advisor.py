"""Tests for the cut-to-fit partitioner advisor."""

import pytest

from repro.analysis.advisor import recommend_empirically, recommend_partitioner
from repro.core.properties import summarize
from repro.datasets.generators import road_network, social_graph
from repro.errors import AnalysisError
from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.registry import make_partitioner
from repro.session import Session


@pytest.fixture(scope="module")
def road():
    return road_network(rows=8, cols=8, num_components=2, diagonal_prob=0.02, seed=0)


@pytest.fixture(scope="module")
def dense_social():
    return social_graph(
        num_vertices=400,
        num_edges=16_000,
        undirected=True,
        triadic_closure=0.4,
        seed=1,
        name="dense",
    )


class TestHeuristicRecommendation:
    def test_large_dense_graph_gets_2d_for_pagerank(self, dense_social):
        recommendation = recommend_partitioner(dense_social, "PR")
        assert recommendation.partitioner == "2D"
        assert recommendation.metric == "comm_cost"
        assert recommendation.granularity == "coarse"

    def test_road_network_gets_destination_cut(self, road):
        recommendation = recommend_partitioner(road, "PR")
        assert recommendation.partitioner == "DC"
        assert recommendation.metric == "comm_cost"

    def test_triangle_count_recommendation_is_balanced_and_fine_grained(self, dense_social):
        recommendation = recommend_partitioner(dense_social, "TR")
        assert recommendation.partitioner == "CRVC"
        assert recommendation.metric == "cut"
        assert recommendation.granularity == "fine"

    def test_accepts_summary_instead_of_graph(self, road):
        summary = summarize(road)
        by_graph = recommend_partitioner(road, "CC")
        by_summary = recommend_partitioner(summary, "CC")
        assert by_graph.partitioner == by_summary.partitioner

    def test_algorithm_aliases(self, dense_social):
        assert recommend_partitioner(dense_social, "pagerank").algorithm == "PR"
        assert recommend_partitioner(dense_social, "Triangles").algorithm == "TR"
        assert recommend_partitioner(dense_social, "ShortestPaths").algorithm == "SSSP"

    def test_unknown_algorithm_rejected(self, dense_social):
        with pytest.raises(AnalysisError):
            recommend_partitioner(dense_social, "BFS")

    def test_invalid_graph_argument_rejected(self):
        with pytest.raises(AnalysisError):
            recommend_partitioner("not a graph", "PR")

    def test_str_contains_key_fields(self, dense_social):
        text = str(recommend_partitioner(dense_social, "PR"))
        assert "2D" in text
        assert "comm_cost" in text


class TestEmpiricalRecommendation:
    def test_picks_minimum_of_measured_metric(self, road):
        recommendation = recommend_empirically(road, "PR", num_partitions=8)
        assert recommendation.candidates
        best_by_hand = min(recommendation.candidates, key=recommendation.candidates.get)
        assert recommendation.candidates[recommendation.partitioner] == pytest.approx(
            recommendation.candidates[best_by_hand]
        )

    def test_candidate_restriction(self, road):
        recommendation = recommend_empirically(road, "CC", num_partitions=8, candidates=["RVC", "2D"])
        assert set(recommendation.candidates) == {"RVC", "2D"}
        assert recommendation.partitioner in {"RVC", "2D"}

    def test_triangle_count_uses_cut_metric(self, dense_social):
        recommendation = recommend_empirically(dense_social, "TR", num_partitions=8)
        assert recommendation.metric == "cut"

    def test_empty_candidates_rejected(self, road):
        with pytest.raises(AnalysisError):
            recommend_empirically(road, "PR", num_partitions=8, candidates=[])

    def test_rationale_mentions_measurement(self, road):
        recommendation = recommend_empirically(road, "PR", num_partitions=4)
        assert "Measured" in recommendation.rationale

    def test_scores_match_direct_measurement(self, small_social_graph):
        candidates = ["RVC", "2D", "DC"]
        recommendation = recommend_empirically(
            small_social_graph, "PR", num_partitions=8, candidates=candidates
        )
        direct = {
            name: compute_metrics(make_partitioner(name).assign(small_social_graph, 8)).comm_cost
            for name in candidates
        }
        assert recommendation.candidates == direct
        # Ties go to the earlier candidate.
        assert recommendation.partitioner == min(
            direct, key=lambda name: (direct[name], candidates.index(name))
        )

    def test_shares_the_session_cache_with_later_plans(self, small_social_graph):
        session = Session()
        recommend_empirically(
            small_social_graph, "PR", num_partitions=8, candidates=["RVC", "2D"], session=session
        )
        assert session.stats.partition_misses == 2
        # The study that follows the advice reuses the advisor's placements.
        (
            session.plan()
            .datasets(small_social_graph.name)
            .partitioners("RVC", "2D")
            .granularities(8)
            .algorithms("PR")
            .iterations(2)
            .run()
        )
        assert session.stats.partition_misses == 2
