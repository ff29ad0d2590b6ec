"""Unit tests for the synthetic graph generators."""

import math
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import properties as props
from repro.datasets.generators import _weighted_sampler, ring_of_cliques, road_network, social_graph
from repro.errors import DatasetError


def _hand_sampler(weights, draw):
    """The sampler's original hand-written binary search, kept as its oracle."""
    cumulative = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)

    def sample():
        target = draw() * total
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    return sample


@st.composite
def _dyadic_sampler_cases(draw):
    """Integer weights with zeros, zero plateaus and trailing zeros.

    A pad weight lifts the total to a power of two, so ``r * total`` is
    exact and the draw ``r = running_sum / total`` lands on that running sum.
    """
    head = draw(st.lists(st.integers(0, 4), max_size=30))
    total = 1 << max(sum(head) - 1, 0).bit_length()
    trailing = draw(st.integers(0, 3))
    weights = [float(w) for w in head + [total - sum(head)] + [0] * trailing]
    on_a_sum = st.sampled_from(list(accumulate(weights))).map(lambda s: s / total)
    anywhere = st.floats(0.0, 1.0, exclude_max=True)
    draws = draw(st.lists(st.one_of(on_a_sum, anywhere), min_size=1, max_size=20))
    return weights, draws


def _assert_sampler_matches_oracle(weights, draws):
    sample = _weighted_sampler(weights, iter(draws).__next__)
    oracle = _hand_sampler(weights, iter(draws).__next__)
    for _ in draws:
        assert sample() == oracle()


class TestRoadNetwork:
    def test_grid_size_and_symmetry(self):
        graph = road_network(rows=4, cols=5, num_components=1, diagonal_prob=0.0, seed=0)
        assert graph.num_vertices == 20
        # 4x5 grid: horizontal edges 4*4, vertical edges 3*5, both directions.
        assert graph.num_edges == 2 * (4 * 4 + 3 * 5)
        assert props.symmetry_percent(graph) == 100.0

    def test_component_count(self):
        graph = road_network(rows=3, cols=3, num_components=4, diagonal_prob=0.0, seed=0)
        assert props.num_weakly_connected_components(graph) == 4
        assert graph.num_vertices == 36

    def test_ids_are_locality_preserving(self):
        graph = road_network(rows=4, cols=4, num_components=1, diagonal_prob=0.0, seed=0)
        # Every edge connects ids that differ by 1 (same row) or by the
        # column count (adjacent rows).
        for src, dst in graph.edge_pairs():
            assert abs(src - dst) in (1, 4)

    def test_diagonals_add_triangles(self):
        without = road_network(rows=6, cols=6, diagonal_prob=0.0, seed=1)
        with_diagonals = road_network(rows=6, cols=6, diagonal_prob=1.0, seed=1)
        assert props.triangle_count(without) == 0
        assert props.triangle_count(with_diagonals) > 0

    def test_deterministic(self):
        first = road_network(rows=5, cols=5, diagonal_prob=0.3, seed=42)
        second = road_network(rows=5, cols=5, diagonal_prob=0.3, seed=42)
        assert first.edge_set() == second.edge_set()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 1, "cols": 5},
            {"rows": 5, "cols": 1},
            {"rows": 3, "cols": 3, "num_components": 0},
            {"rows": 3, "cols": 3, "diagonal_prob": 1.5},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DatasetError):
            road_network(**kwargs)


class TestSocialGraph:
    def test_deterministic_for_same_seed(self):
        first = social_graph(num_vertices=100, num_edges=400, seed=5)
        second = social_graph(num_vertices=100, num_edges=400, seed=5)
        assert first.edge_set() == second.edge_set()

    def test_different_seeds_differ(self):
        first = social_graph(num_vertices=100, num_edges=400, seed=5)
        second = social_graph(num_vertices=100, num_edges=400, seed=6)
        assert first.edge_set() != second.edge_set()

    def test_edge_count_close_to_target(self):
        graph = social_graph(num_vertices=200, num_edges=1000, seed=1, connect=False)
        assert graph.num_edges >= 1000
        assert graph.num_edges <= 1400  # reciprocity/closure overshoot is bounded

    def test_undirected_graphs_are_fully_symmetric(self):
        graph = social_graph(num_vertices=150, num_edges=600, undirected=True, seed=2)
        assert props.symmetry_percent(graph) == 100.0

    def test_reciprocity_controls_symmetry(self):
        low = social_graph(num_vertices=200, num_edges=1200, reciprocity=0.05, seed=3)
        high = social_graph(num_vertices=200, num_edges=1200, reciprocity=0.9, seed=3)
        assert props.symmetry_percent(low) < props.symmetry_percent(high)

    def test_zero_fraction_roles_produce_leaf_vertices(self):
        graph = social_graph(
            num_vertices=300,
            num_edges=1500,
            zero_in_fraction=0.3,
            zero_out_fraction=0.2,
            reciprocity=0.2,
            seed=4,
        )
        assert props.zero_in_percent(graph) > 15.0
        assert props.zero_out_percent(graph) > 8.0

    def test_connect_produces_single_component(self):
        graph = social_graph(num_vertices=200, num_edges=600, connect=True, num_components=1, seed=7)
        assert props.num_weakly_connected_components(graph) == 1

    def test_satellite_components(self):
        graph = social_graph(
            num_vertices=300, num_edges=900, connect=True, num_components=6, seed=8
        )
        assert props.num_weakly_connected_components(graph) == 6

    def test_superstars_create_heavy_tail(self):
        graph = social_graph(
            num_vertices=400,
            num_edges=2000,
            superstar_count=5,
            superstar_boost=50.0,
            reciprocity=0.1,
            seed=9,
        )
        in_degrees = sorted(graph.in_degrees().values(), reverse=True)
        mean_degree = sum(in_degrees) / len(in_degrees)
        assert in_degrees[0] > 8 * mean_degree

    def test_triadic_closure_increases_triangles(self):
        open_graph = social_graph(num_vertices=200, num_edges=1200, triadic_closure=0.0, seed=10)
        closed_graph = social_graph(num_vertices=200, num_edges=1200, triadic_closure=0.7, seed=10)
        assert props.triangle_count(closed_graph) > props.triangle_count(open_graph)

    def test_shuffle_ids_changes_labels_not_structure(self):
        plain = social_graph(num_vertices=150, num_edges=500, shuffle_ids=False, seed=11)
        shuffled = social_graph(num_vertices=150, num_edges=500, shuffle_ids=True, seed=11)
        assert plain.num_edges == shuffled.num_edges
        assert plain.edge_set() != shuffled.edge_set()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_vertices": 1, "num_edges": 5},
            {"num_vertices": 10, "num_edges": 0},
            {"num_vertices": 10, "num_edges": 5, "exponent": 1.0},
            {"num_vertices": 10, "num_edges": 5, "exponent": math.nan},
            {"num_vertices": 10, "num_edges": 5, "exponent": math.inf},
            {"num_vertices": 10, "num_edges": 5, "reciprocity": 1.2},
            {"num_vertices": 10, "num_edges": 5, "zero_in_fraction": 0.6, "zero_out_fraction": 0.5},
            {"num_vertices": 10, "num_edges": 5, "num_components": 0},
            {"num_vertices": 2**32, "num_edges": 5},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DatasetError):
            social_graph(seed=0, **kwargs)


class TestWeightedSampler:
    @settings(max_examples=300, deadline=None)
    @given(_dyadic_sampler_cases())
    @example(([5.0], [0.0, 0.5, 1.0]))  # a single weight
    @example(([0.0, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0], [0.0, 0.5, 0.75, 1.0]))  # plateaus, trailing zeros
    def test_bisect_matches_hand_binary_search(self, case):
        _assert_sampler_matches_oracle(*case)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=40).filter(
            lambda weights: sum(weights) > 0
        ),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
    )
    def test_bisect_matches_hand_binary_search_on_float_weights(self, weights, draws):
        _assert_sampler_matches_oracle(weights, draws)


class TestRingOfCliques:
    def test_structure(self):
        graph = ring_of_cliques(num_cliques=3, clique_size=4)
        assert graph.num_vertices == 12
        assert props.symmetry_percent(graph) == 100.0
        assert props.num_weakly_connected_components(graph) == 1
        # Each 4-clique contributes C(4,3)=4 triangles.
        assert props.triangle_count(graph) >= 12

    def test_single_clique(self):
        graph = ring_of_cliques(num_cliques=1, clique_size=5)
        assert props.triangle_count(graph) == 10

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            ring_of_cliques(0, 4)
        with pytest.raises(DatasetError):
            ring_of_cliques(3, 1)
