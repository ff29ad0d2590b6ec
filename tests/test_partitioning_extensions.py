"""Unit tests for the extension partitioners (DBH, Greedy, HDRF, Fennel)."""

import numpy as np
import pytest

from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.greedy import DegreeBasedHashing, GreedyVertexCut, HdrfPartitioner
from repro.partitioning.hash_partitioners import RandomVertexCut
from repro.partitioning.streaming import FennelEdgePartitioner

EXTENSIONS = [DegreeBasedHashing(), GreedyVertexCut(), HdrfPartitioner(), FennelEdgePartitioner()]


@pytest.mark.parametrize("strategy", EXTENSIONS, ids=lambda s: s.name)
class TestExtensionCommonProperties:
    def test_every_edge_assigned_in_range(self, strategy, small_social_graph):
        assignment = strategy.assign(small_social_graph, 8)
        assert assignment.partition_of.shape[0] == small_social_graph.num_edges
        assert assignment.partition_of.min() >= 0
        assert assignment.partition_of.max() < 8

    def test_deterministic(self, strategy, small_social_graph):
        first = strategy.assign(small_social_graph, 8).partition_of
        second = strategy.assign(small_social_graph, 8).partition_of
        assert np.array_equal(first, second)

    def test_single_partition(self, strategy, triangle_graph):
        assignment = strategy.assign(triangle_graph, 1)
        assert set(assignment.partition_of.tolist()) == {0}


class TestDegreeBasedHashing:
    def test_lower_degree_endpoint_anchors_the_edge(self):
        # Vertex 0 is a hub (degree 4); vertices 1-4 are leaves.  Every
        # edge must be placed where its leaf endpoint hashes.
        from repro.core.graph import Graph
        from repro.partitioning.hashing import mix64

        graph = Graph([0, 0, 0, 0], [1, 2, 3, 4])
        assignment = DegreeBasedHashing().assign(graph, 5)
        for (_, leaf), part in zip(graph.edge_pairs(), assignment.partition_of.tolist()):
            assert part == int(mix64(leaf) % np.uint64(5))

    def test_reduces_replication_versus_rvc_on_skewed_graph(self, small_social_graph):
        dbh = compute_metrics(DegreeBasedHashing().assign(small_social_graph, 16))
        rvc = compute_metrics(RandomVertexCut().assign(small_social_graph, 16))
        assert dbh.total_replicas < rvc.total_replicas

    def test_scalar_api_requires_degrees_context(self):
        # partition_edge with no prior assign() sees zero degrees and falls
        # back to hashing the source; it must still return a valid id.
        strategy = DegreeBasedHashing()
        assert 0 <= strategy.partition_edge(3, 4, 8) < 8


class TestGreedyVertexCut:
    def test_balanced_loads(self, small_social_graph):
        metrics = compute_metrics(GreedyVertexCut().assign(small_social_graph, 8))
        assert metrics.balance < 1.2

    def test_fewer_replicas_than_rvc(self, small_social_graph):
        greedy = compute_metrics(GreedyVertexCut().assign(small_social_graph, 8))
        rvc = compute_metrics(RandomVertexCut().assign(small_social_graph, 8))
        assert greedy.comm_cost < rvc.comm_cost

    def test_scalar_api_not_supported(self):
        with pytest.raises(NotImplementedError):
            GreedyVertexCut().partition_edge(0, 1, 2)


class TestHdrf:
    def test_balance_weight_validation(self):
        with pytest.raises(ValueError):
            HdrfPartitioner(balance_weight=-1.0)

    def test_fewer_replicas_than_rvc(self, small_social_graph):
        hdrf = compute_metrics(HdrfPartitioner().assign(small_social_graph, 8))
        rvc = compute_metrics(RandomVertexCut().assign(small_social_graph, 8))
        assert hdrf.total_replicas < rvc.total_replicas

    def test_scalar_api_not_supported(self):
        with pytest.raises(NotImplementedError):
            HdrfPartitioner().partition_edge(0, 1, 2)


class TestFennel:
    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            FennelEdgePartitioner(gamma=-0.5)

    def test_balance_penalty_keeps_partitions_bounded(self, small_social_graph):
        metrics = compute_metrics(FennelEdgePartitioner(gamma=2.0).assign(small_social_graph, 8))
        assert metrics.balance < 2.0

    def test_zero_gamma_degenerates_to_pure_affinity(self, small_social_graph):
        # Without the balance penalty the first partition soaks up almost
        # everything (all endpoints become "known" there).
        metrics = compute_metrics(FennelEdgePartitioner(gamma=0.0).assign(small_social_graph, 4))
        assert metrics.largest_edge_fraction > 0.5

    def test_scalar_api_not_supported(self):
        with pytest.raises(NotImplementedError):
            FennelEdgePartitioner().partition_edge(0, 1, 2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "make",
    [
        lambda value: GreedyVertexCut(balance_slack=value),
        lambda value: HdrfPartitioner(balance_weight=value),
        lambda value: FennelEdgePartitioner(gamma=value),
    ],
    ids=["balance_slack", "balance_weight", "gamma"],
)
def test_non_finite_knobs_rejected(make, value):
    # A nan knob passes a plain "< 0" check and then scores every
    # partition nan, which put every edge in partition 0.
    with pytest.raises(ValueError, match="finite"):
        make(value)
