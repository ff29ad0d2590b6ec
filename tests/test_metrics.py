"""Unit tests for the Section 3.1 partitioning metrics."""

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.metrics.partition_metrics import (
    METRIC_NAMES,
    compute_metrics,
    master_partition_array,
)
from repro.partitioning.base import EdgePartitionAssignment
from repro.partitioning.registry import make_partitioner, paper_partitioners


def _manual_assignment(graph, num_partitions, placement):
    return EdgePartitionAssignment(
        graph=graph,
        num_partitions=num_partitions,
        partition_of=np.asarray(placement),
        strategy_name="manual",
    )


class TestManualExamples:
    def test_star_split_across_two_partitions(self):
        # Star 0 -> {1, 2, 3, 4}; first two edges in partition 0, last two in 1.
        graph = Graph([0, 0, 0, 0], [1, 2, 3, 4])
        metrics = compute_metrics(_manual_assignment(graph, 2, [0, 0, 1, 1]))
        assert metrics.non_cut == 4          # the four leaves live in one partition each
        assert metrics.cut == 1              # the hub is replicated
        assert metrics.comm_cost == 2        # two copies of the hub
        assert metrics.total_replicas == 6
        assert metrics.balance == pytest.approx(1.0)
        assert metrics.part_stdev == pytest.approx(0.0)
        assert metrics.replication_factor == pytest.approx(6 / 5)

    def test_all_edges_in_one_partition(self):
        graph = Graph([0, 1, 2], [1, 2, 0])
        metrics = compute_metrics(_manual_assignment(graph, 3, [1, 1, 1]))
        assert metrics.cut == 0
        assert metrics.non_cut == 3
        assert metrics.comm_cost == 0
        assert metrics.balance == pytest.approx(3.0)  # max 3 edges vs mean 1
        assert metrics.max_partition_edges == 3
        assert metrics.largest_edge_fraction == pytest.approx(1.0)

    def test_every_edge_in_its_own_partition(self):
        graph = Graph([0, 1, 2], [1, 2, 0])
        metrics = compute_metrics(_manual_assignment(graph, 3, [0, 1, 2]))
        assert metrics.cut == 3
        assert metrics.non_cut == 0
        assert metrics.comm_cost == 6
        assert metrics.balance == pytest.approx(1.0)

    def test_isolated_vertices_do_not_count(self):
        graph = Graph([0], [1], vertices=[7, 8])
        metrics = compute_metrics(_manual_assignment(graph, 2, [0]))
        assert metrics.non_cut == 2
        assert metrics.cut == 0
        assert metrics.total_replicas == 2


class TestInvariants:
    @pytest.mark.parametrize("partitioner", [s.name for s in paper_partitioners()])
    @pytest.mark.parametrize("num_partitions", [4, 9, 16])
    def test_replica_breakdowns_agree(self, small_social_graph, partitioner, num_partitions):
        strategy = make_partitioner(partitioner)
        metrics = compute_metrics(strategy.assign(small_social_graph, num_partitions))
        # The two breakdowns of the replica count described in Section 3.1.
        assert metrics.comm_cost + metrics.non_cut == metrics.total_replicas
        assert metrics.vertices_to_same + metrics.vertices_to_other == metrics.total_replicas
        # Cut/NonCut partition the placed vertex set.
        placed = metrics.cut + metrics.non_cut
        assert placed <= small_social_graph.num_vertices
        assert metrics.replication_factor >= 1.0
        assert metrics.comm_cost >= 2 * metrics.cut

    def test_single_partition_has_no_cut_vertices(self, small_social_graph):
        metrics = compute_metrics(make_partitioner("RVC").assign(small_social_graph, 1))
        assert metrics.cut == 0
        assert metrics.comm_cost == 0
        assert metrics.balance == pytest.approx(1.0)
        assert metrics.part_stdev == pytest.approx(0.0)

    def test_more_partitions_never_reduce_comm_cost(self, small_social_graph):
        strategy = make_partitioner("CRVC")
        coarse = compute_metrics(strategy.assign(small_social_graph, 8))
        fine = compute_metrics(strategy.assign(small_social_graph, 32))
        assert fine.comm_cost >= coarse.comm_cost

    def test_metric_value_lookup(self, small_social_graph):
        metrics = compute_metrics(make_partitioner("2D").assign(small_social_graph, 9))
        for name in METRIC_NAMES:
            assert metrics.value(name) == pytest.approx(float(getattr(metrics, name)))
        with pytest.raises(KeyError):
            metrics.value("no-such-metric")

    def test_as_row_matches_table_columns(self, small_social_graph):
        metrics = compute_metrics(make_partitioner("1D").assign(small_social_graph, 8))
        row = metrics.as_row()
        assert list(row) == ["partitioner", "balance", "non_cut", "cut", "comm_cost", "part_stdev"]
        assert row["partitioner"] == "1D"


class TestMasterPartition:
    def test_in_range_and_deterministic(self):
        masters = master_partition_array(np.arange(100), 16)
        assert ((0 <= masters) & (masters < 16)).all()
        assert np.array_equal(masters, master_partition_array(np.arange(100), 16))

    def test_distribution_roughly_uniform(self):
        counts = np.bincount(master_partition_array(np.arange(4000), 8), minlength=8)
        assert counts.min() > 0.7 * 4000 / 8
        assert counts.max() < 1.3 * 4000 / 8
