"""Unit tests for the HybridCut (PowerLyra-style) extension partitioner."""

import math

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.hashing import mix64
from repro.partitioning.hybrid import HybridCut
from repro.partitioning.modulo_partitioners import DestinationCut
from repro.partitioning.registry import make_partitioner


def _hub_graph(num_leaves=40, num_partitions=8):
    """A star into vertex 0 plus a sparse low-degree tail."""
    src = list(range(1, num_leaves + 1)) + [50, 51, 52]
    dst = [0] * num_leaves + [51, 52, 53]
    return Graph(src, dst)


class TestHybridCut:
    def test_registered_in_registry(self):
        assert make_partitioner("hybrid").name == "Hybrid"

    def test_low_degree_destinations_grouped_like_dc(self):
        graph = _hub_graph()
        strategy = HybridCut(threshold=10)
        assignment = strategy.assign(graph, 8)
        placement = dict(zip(graph.edge_pairs(), assignment.partition_of.tolist()))
        # Low-degree destinations (51, 52, 53) are placed by destination hash.
        for src, dst in [(50, 51), (51, 52), (52, 53)]:
            assert placement[(src, dst)] == int(mix64(dst) % np.uint64(8))

    def test_high_degree_destination_spread_by_source(self):
        graph = _hub_graph()
        assignment = HybridCut(threshold=10).assign(graph, 8)
        hub_partitions = {
            part
            for (src, dst), part in zip(graph.edge_pairs(), assignment.partition_of.tolist())
            if dst == 0
        }
        # The hub's in-edges land in many partitions instead of one.
        assert len(hub_partitions) > 3

    def test_default_threshold_adapts_to_graph(self, small_social_graph):
        assignment = HybridCut().assign(small_social_graph, 8)
        assert assignment.partition_of.shape[0] == small_social_graph.num_edges
        assert assignment.partition_of.max() < 8

    def test_improves_balance_over_dc_on_hub_heavy_graph(self):
        graph = _hub_graph(num_leaves=64)
        hybrid = compute_metrics(HybridCut(threshold=8).assign(graph, 8))
        dc = compute_metrics(DestinationCut().assign(graph, 8))
        assert hybrid.balance < dc.balance

    def test_deterministic(self, small_social_graph):
        first = HybridCut().assign(small_social_graph, 6).partition_of
        second = HybridCut().assign(small_social_graph, 6).partition_of
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("threshold", [2.5, math.nan, math.inf, True, 0])
    def test_invalid_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            HybridCut(threshold=threshold)

    def test_scalar_call_outside_assign_uses_destination(self):
        # With no degree context every vertex counts as low degree, so the
        # strategy degrades gracefully to destination hashing.
        strategy = HybridCut(threshold=5)
        assert strategy.partition_edge(3, 9, 4) == int(mix64(9) % np.uint64(4))
