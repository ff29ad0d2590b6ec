"""Unit tests for the paper's six partitioning strategies.

Each strategy's defining collocation / bounding property from Section 3 of
the paper is asserted explicitly.
"""

import math

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.partitioning.hash_partitioners import (
    CanonicalRandomVertexCut,
    EdgePartition1D,
    EdgePartition2D,
    RandomVertexCut,
)
from repro.partitioning.modulo_partitioners import DestinationCut, SourceCut
from repro.partitioning.registry import paper_partitioners

ALL_STRATEGIES = [
    RandomVertexCut(),
    EdgePartition1D(),
    EdgePartition2D(),
    CanonicalRandomVertexCut(),
    SourceCut(),
    DestinationCut(),
]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
class TestCommonStrategyProperties:
    def test_partition_ids_in_range(self, strategy, small_social_graph):
        for num_partitions in (1, 3, 8, 17):
            assignment = strategy.assign(small_social_graph, num_partitions)
            placement = assignment.partition_of
            assert placement.min() >= 0
            assert placement.max() < num_partitions

    def test_deterministic(self, strategy, small_social_graph):
        first = strategy.assign(small_social_graph, 8).partition_of
        second = strategy.assign(small_social_graph, 8).partition_of
        assert np.array_equal(first, second)

    def test_scalar_and_vectorised_paths_agree(self, strategy, small_social_graph):
        assignment = strategy.assign(small_social_graph, 6)
        scalar = [
            strategy.partition_edge(s, d, 6) for s, d in small_social_graph.edge_pairs()
        ]
        assert assignment.partition_of.tolist() == scalar

    def test_single_partition_collapses_everything(self, strategy, triangle_graph):
        assignment = strategy.assign(triangle_graph, 1)
        assert set(assignment.partition_of.tolist()) == {0}


class TestRandomVertexCut:
    def test_parallel_edges_collocated(self):
        strategy = RandomVertexCut()
        assert strategy.partition_edge(3, 9, 16) == strategy.partition_edge(3, 9, 16)

    def test_reverse_edges_usually_separated(self):
        strategy = RandomVertexCut()
        separated = sum(
            strategy.partition_edge(u, v, 64) != strategy.partition_edge(v, u, 64)
            for u, v in [(i, i + 101) for i in range(200)]
        )
        assert separated > 150  # overwhelmingly in different partitions


class TestCanonicalRandomVertexCut:
    def test_both_directions_collocated(self):
        strategy = CanonicalRandomVertexCut()
        for u, v in [(1, 2), (5, 100), (17, 3), (99, 98)]:
            assert strategy.partition_edge(u, v, 32) == strategy.partition_edge(v, u, 32)

    def test_agrees_with_rvc_on_canonical_order(self):
        crvc = CanonicalRandomVertexCut()
        rvc = RandomVertexCut()
        assert crvc.partition_edge(2, 7, 16) == rvc.partition_edge(2, 7, 16)


class TestEdgePartition1D:
    def test_all_out_edges_of_a_vertex_collocated(self, small_social_graph):
        assignment = EdgePartition1D().assign(small_social_graph, 8)
        placements = {}
        for (s, _d), p in zip(small_social_graph.edge_pairs(), assignment.partition_of.tolist()):
            placements.setdefault(s, set()).add(p)
        assert all(len(parts) == 1 for parts in placements.values())

    def test_ignores_destination(self):
        strategy = EdgePartition1D()
        assert strategy.partition_edge(42, 1, 8) == strategy.partition_edge(42, 999, 8)


class TestEdgePartition2D:
    def test_replication_bound_on_perfect_square(self, small_social_graph):
        num_partitions = 16  # perfect square
        strategy = EdgePartition2D()
        assignment = strategy.assign(small_social_graph, num_partitions)
        bound = strategy.max_replication(num_partitions)
        assert bound == 2 * int(math.sqrt(num_partitions)) - 1
        worst = int(assignment.membership().counts.max())
        assert worst <= bound

    def test_grid_side_is_ceiling_of_sqrt(self):
        assert EdgePartition2D._grid_side(16) == 4
        assert EdgePartition2D._grid_side(17) == 5
        assert EdgePartition2D._grid_side(1) == 1

    def test_source_determines_column_destination_row(self):
        strategy = EdgePartition2D()
        # With 16 partitions the grid is 4x4: same (src, dst) hashes map to
        # the same cell regardless of other ids.
        assert strategy.partition_edge(8, 3, 16) == strategy.partition_edge(8, 3, 16)

    def test_non_perfect_square_still_in_range(self, small_social_graph):
        assignment = EdgePartition2D().assign(small_social_graph, 12)
        assert assignment.partition_of.max() < 12


class TestSourceAndDestinationCut:
    def test_source_cut_is_modulo_of_source(self):
        strategy = SourceCut()
        assert strategy.partition_edge(10, 999, 4) == 2
        assert strategy.partition_edge(7, 0, 4) == 3

    def test_destination_cut_is_modulo_of_destination(self):
        strategy = DestinationCut()
        assert strategy.partition_edge(999, 10, 4) == 2
        assert strategy.partition_edge(0, 7, 4) == 3

    def test_sc_and_dc_agree_on_symmetric_graphs(self, small_road_graph):
        sc_metrics = SourceCut().assign(small_road_graph, 8).edges_per_partition()
        dc_metrics = DestinationCut().assign(small_road_graph, 8).edges_per_partition()
        # On a fully reciprocated graph each (u, v) has a twin (v, u), so the
        # per-partition edge counts coincide.
        assert sc_metrics.tolist() == dc_metrics.tolist()

    def test_id_locality_reduces_replication_on_road_networks(self, small_road_graph):
        # With locality-preserving ids, the modulo strategy keeps each
        # vertex's edges in a handful of neighbouring partitions, so the
        # total number of vertex replicas is smaller than under the random
        # vertex cut.
        num_partitions = 6
        sc_replicas = _total_replicas(SourceCut().assign(small_road_graph, num_partitions))
        rvc_replicas = _total_replicas(RandomVertexCut().assign(small_road_graph, num_partitions))
        assert sc_replicas < rvc_replicas


def _total_replicas(assignment) -> int:
    return assignment.membership().num_pairs


class TestPaperPartitionerSet:
    def test_six_strategies_in_paper_order(self):
        names = [s.name for s in paper_partitioners()]
        assert names == ["RVC", "1D", "2D", "CRVC", "SC", "DC"]

    def test_strategies_differ_on_a_real_graph(self, small_social_graph):
        placements = {
            s.name: tuple(s.assign(small_social_graph, 8).partition_of.tolist())
            for s in paper_partitioners()
        }
        # SC/DC may coincide with each other only on symmetric graphs; on a
        # directed social graph all six placements should be distinct.
        assert len(set(placements.values())) == 6
