"""Equivalence: the array-native pipeline vs the seed dict implementations.

The PR that introduced ``VertexMembership`` rewired ``compute_metrics``,
``RoutingTable`` and the edge-partition construction onto flat numpy
arrays.  These tests prove the rewrite is observationally identical to the
seed code across every registered partitioner and the awkward graph shapes
(duplicate edges, self-loops, sparse vertex ids, isolated vertices), and
that the vectorised ``assign_array`` overrides agree edge-for-edge with
the scalar ``partition_edge`` semantics.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from repro.engine.cluster import paper_cluster
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.routing import RoutingTable
from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.base import PartitionStrategy
from repro.partitioning.degrees import DegreeLookup
from repro.partitioning.greedy import DegreeBasedHashing, GreedyVertexCut, HdrfPartitioner
from repro.partitioning.hybrid import HybridCut
from repro.partitioning.registry import available_partitioners, make_partitioner
from repro.partitioning.streaming import FennelEdgePartitioner
from pregel_oracles import (
    compute_metrics_reference,
    membership_dict,
    routing_from_vertex_partitions,
    routing_views,
    vertex_partitions_reference,
)

ALL_PARTITIONERS = available_partitioners()

#: Pure (stateless) strategies whose scalar method can be compared directly.
STATELESS = ["RVC", "1D", "2D", "CRVC", "SC", "DC"]


def _edge_case_graphs():
    return {
        "dups-and-loops": Graph([4, 4, 4, 9, 9, 2], [7, 7, 4, 2, 2, 9]),
        "sparse-ids": Graph([0, 10**9, 10**12], [10**9, 10**12, 0]),
        "isolated": Graph([1, 2], [2, 3], vertices=[100, 200]),
        "empty": Graph([], [], vertices=[1, 2, 3]),
    }


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@pytest.mark.parametrize("num_partitions", [1, 8, 13])
class TestMetricsAndRoutingEquivalence:
    def test_metrics_identical_on_social_graph(self, name, num_partitions, small_social_graph):
        assignment = make_partitioner(name).assign(small_social_graph, num_partitions)
        assert compute_metrics(assignment) == compute_metrics_reference(assignment)

    def test_routing_identical_on_social_graph(self, name, num_partitions, small_social_graph):
        assignment = make_partitioner(name).assign(small_social_graph, num_partitions)
        vertex_ids = small_social_graph.vertex_ids
        array_table = RoutingTable.from_assignment(assignment)
        array_views = routing_views(array_table, vertex_ids)
        seed_table = routing_from_vertex_partitions(
            num_partitions, vertex_partitions_reference(assignment)
        )
        assert array_views.replicas == seed_table.replicas
        assert array_views.masters == seed_table.masters
        # The broadcast the engine reads: per vertex, its replicas other
        # than the master's, which is the seed's per-vertex sync count.
        offsets, _, _ = array_table.broadcast_plan(paper_cluster().executor_map(num_partitions))
        assert np.diff(offsets).tolist() == [
            seed_table.sync_message_count(vertex) for vertex in vertex_ids.tolist()
        ]

    def test_membership_matches_reference(self, name, num_partitions, small_social_graph):
        assignment = make_partitioner(name).assign(small_social_graph, num_partitions)
        expanded = membership_dict(assignment.membership(), small_social_graph.vertex_ids)
        assert expanded == vertex_partitions_reference(assignment)


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@pytest.mark.parametrize("label", list(_edge_case_graphs()))
def test_metrics_equivalent_on_edge_case_graphs(name, label):
    graph = _edge_case_graphs()[label]
    assignment = make_partitioner(name).assign(graph, 5)
    assert compute_metrics(assignment) == compute_metrics_reference(assignment)
    expanded = membership_dict(assignment.membership(), graph.vertex_ids)
    assert expanded == vertex_partitions_reference(assignment)
    array_views = routing_views(RoutingTable.from_assignment(assignment), graph.vertex_ids)
    seed_table = routing_from_vertex_partitions(5, vertex_partitions_reference(assignment))
    assert array_views.replicas == seed_table.replicas
    assert array_views.masters == seed_table.masters


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_edge_partitions_match_seed_bucketing(name, small_social_graph):
    """The compiled edge order preserves the seed's per-partition edge order,
    and the slots are the partitions' vertex mirror sets."""
    pgraph = PartitionedGraph.partition(small_social_graph, name, 7)
    placement = pgraph.assignment.partition_of.tolist()
    trip = pgraph.triplets()
    edge_lists = trip.edge_lists()
    for pid in range(7):
        expected_pairs = [
            (s, d)
            for (s, d), p in zip(small_social_graph.edge_pairs(), placement)
            if p == pid
        ]
        assert edge_lists[pid] == expected_pairs
        mirrors = trip.vertex_ids[trip.slot_vertex[trip.slot_bounds[pid]:trip.slot_bounds[pid + 1]]]
        assert mirrors.tolist() == sorted({v for pair in expected_pairs for v in pair})


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_sync_message_counts_matches_scalar(name, small_social_graph):
    routing = RoutingTable.from_assignment(
        make_partitioner(name).assign(small_social_graph, 8)
    )
    views = routing_views(routing, small_social_graph.vertex_ids)
    offsets, _, _ = routing.broadcast_plan(paper_cluster().executor_map(8))
    placed = np.searchsorted(small_social_graph.vertex_ids, routing.membership.vertices)
    counts = np.diff(offsets)[placed]
    for index, vertex in enumerate(routing.membership.vertices.tolist()):
        assert counts[index] == views.sync_message_count(vertex)
    # Summed over all placed vertices this is the engine-side broadcast
    # volume, which can never exceed the total replica count.
    assert counts.sum() <= routing.membership.num_pairs


def _seed_greedy(graph, num_partitions, balance_slack=1.1):
    """The seed GreedyVertexCut loop (dict-of-sets, per-partition scans)."""
    loads = np.zeros(num_partitions, dtype=np.int64)
    capacity = max(1.0, balance_slack * graph.num_edges / num_partitions)
    where = {}
    placement = np.empty(graph.num_edges, dtype=np.int64)
    for index, (src, dst) in enumerate(graph.edge_pairs()):
        parts_src = where.get(src, set())
        parts_dst = where.get(dst, set())
        common = {p for p in parts_src & parts_dst if loads[p] < capacity}
        either = {p for p in parts_src | parts_dst if loads[p] < capacity}
        candidates = common or either or set(range(num_partitions))
        choice = min(candidates, key=lambda p: (loads[p], p))
        placement[index] = choice
        loads[choice] += 1
        where.setdefault(src, set()).add(choice)
        where.setdefault(dst, set()).add(choice)
    return placement


def _seed_hdrf(graph, num_partitions, balance_weight=1.0):
    """The seed HdrfPartitioner loop (per-partition Python scoring scan)."""
    loads = np.zeros(num_partitions, dtype=np.float64)
    partial_degree = {}
    where = {}
    placement = np.empty(graph.num_edges, dtype=np.int64)
    for index, (src, dst) in enumerate(graph.edge_pairs()):
        partial_degree[src] = partial_degree.get(src, 0) + 1
        partial_degree[dst] = partial_degree.get(dst, 0) + 1
        deg_src = partial_degree[src]
        deg_dst = partial_degree[dst]
        total = deg_src + deg_dst
        theta_src = deg_src / total
        theta_dst = deg_dst / total
        max_load = loads.max()
        min_load = loads.min()
        spread = (max_load - min_load) + 1.0
        best_part = 0
        best_score = -np.inf
        parts_src = where.get(src, set())
        parts_dst = where.get(dst, set())
        for part in range(num_partitions):
            rep = 0.0
            if part in parts_src:
                rep += 1.0 + (1.0 - theta_src)
            if part in parts_dst:
                rep += 1.0 + (1.0 - theta_dst)
            bal = balance_weight * (max_load - loads[part]) / spread
            score = rep + bal
            if score > best_score:
                best_score = score
                best_part = part
        placement[index] = best_part
        loads[best_part] += 1.0
        where.setdefault(src, set()).add(best_part)
        where.setdefault(dst, set()).add(best_part)
    return placement


def _seed_fennel(graph, num_partitions, gamma=1.5):
    """The seed FennelEdgePartitioner loop (per-partition Python scan)."""
    capacity = max(1.0, graph.num_edges / num_partitions)
    loads = np.zeros(num_partitions, dtype=np.float64)
    where = {}
    placement = np.empty(graph.num_edges, dtype=np.int64)
    for index, (src, dst) in enumerate(graph.edge_pairs()):
        parts_src = where.get(src, set())
        parts_dst = where.get(dst, set())
        best_part = 0
        best_score = -np.inf
        for part in range(num_partitions):
            affinity = (1.0 if part in parts_src else 0.0) + (
                1.0 if part in parts_dst else 0.0
            )
            penalty = gamma * loads[part] / capacity
            score = affinity - penalty
            if score > best_score:
                best_score = score
                best_part = part
        placement[index] = best_part
        loads[best_part] += 1.0
        where.setdefault(src, set()).add(best_part)
        where.setdefault(dst, set()).add(best_part)
    return placement


_SEED_STREAMING = {"Greedy": _seed_greedy, "HDRF": _seed_hdrf, "Fennel": _seed_fennel}


@pytest.mark.parametrize("name", sorted(_SEED_STREAMING))
@pytest.mark.parametrize("num_partitions", [1, 4, 9])
class TestStreamingPlacementsMatchSeed:
    """The array-scored streaming loops place every edge exactly where the
    seed set-based loops did, tie-breaking and float evaluation included."""

    def test_on_social_graph(self, name, num_partitions, small_social_graph):
        got = make_partitioner(name).assign(small_social_graph, num_partitions)
        expected = _SEED_STREAMING[name](small_social_graph, num_partitions)
        assert np.array_equal(got.partition_of, expected)

    @pytest.mark.parametrize("label", list(_edge_case_graphs()))
    def test_on_edge_case_graphs(self, name, num_partitions, label):
        graph = _edge_case_graphs()[label]
        got = make_partitioner(name).assign(graph, num_partitions)
        expected = _SEED_STREAMING[name](graph, num_partitions)
        assert np.array_equal(got.partition_of, expected)


#: Per streaming strategy: its class, the knob's keyword (the same in the
#: seed oracle) and knob values that matter for tie-breaking: an exact zero
#: makes every partition outside the endpoints' tie at 0.0, a subnormal
#: weight rounds the balance terms of different load levels to one value,
#: and small whole weights let an endpoint's partition tie exactly with a
#: less loaded other one.
_STREAMING_KNOBS = {
    "Greedy": (GreedyVertexCut, "balance_slack", [1.0, 1.1, 3.0]),
    "HDRF": (HdrfPartitioner, "balance_weight", [0.0, 0.1, 5e-324, 1.0, 3.0, 7.0]),
    "Fennel": (FennelEdgePartitioner, "gamma", [0.0, 0.1, 5e-324, 1.0, 1.5, 2.0, 7.0]),
}


def _seed_placement(name, src, dst, num_partitions, knob):
    """The seed oracle on an edge stream given as arrays."""
    keyword = _STREAMING_KNOBS[name][1]
    return _SEED_STREAMING[name](Graph(src, dst), num_partitions, **{keyword: knob})


@st.composite
def _chunked_streams(draw):
    """A strategy, its knob, a small stream (repeated edges and self-loops
    are likely), chunk boundaries and a partition count."""
    name = draw(st.sampled_from(sorted(_STREAMING_KNOBS)))
    values = _STREAMING_KNOBS[name][2]
    knob = draw(st.one_of(st.sampled_from(values), st.floats(min(values), 10.0)))
    num_vertices = draw(st.integers(1, 40))
    vertex = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=300))
    cuts = sorted(draw(st.lists(st.integers(0, len(edges)), max_size=5)))
    return name, knob, edges, [0, *cuts, len(edges)], draw(st.integers(1, 70))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_chunked_streams())
def test_chunked_streams_place_like_the_seed(case):
    """Scoring only the endpoints' partitions plus the least-loaded other
    one places every edge where the seed's scan over all k did, across
    chunk boundaries, float ties between load levels included."""
    name, knob, edges, bounds, num_partitions = case
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([d for _, d in edges], dtype=np.int64)
    assigner = _STREAMING_KNOBS[name][0](knob).begin_stream(num_partitions, len(edges))
    chunks = [assigner.assign_chunk(src[a:b], dst[a:b]) for a, b in zip(bounds, bounds[1:])]
    expected = _seed_placement(name, src, dst, num_partitions, knob)
    assert np.concatenate(chunks).tolist() == expected.tolist()


@pytest.mark.parametrize("name", ["HDRF", "Fennel"])
def test_zero_balance_weight_on_a_long_stream(name):
    """With a zero weight every partition outside the endpoints scores 0.0
    and the loads drift far apart; the lowest such id must still win, found
    without walking the load levels between them."""
    rng = np.random.default_rng(11)
    src, dst = (np.floor(2_000 * rng.random(20_000) ** 2.0).astype(np.int64) for _ in range(2))
    got = _STREAMING_KNOBS[name][0](0.0).assign(Graph(src, dst), 64).partition_of
    assert np.array_equal(got, _seed_placement(name, src, dst, 64, 0.0))


class TestScalarVsArrayAssignment:
    @pytest.mark.parametrize("name", STATELESS)
    def test_stateless_strategies_agree(self, name, small_social_graph):
        strategy = make_partitioner(name)
        src, dst = small_social_graph.src, small_social_graph.dst
        vectorised = strategy.assign_array(src, dst, 6)
        scalar = [
            strategy.partition_edge(int(s), int(d), 6) for s, d in zip(src, dst)
        ]
        assert vectorised.tolist() == scalar

    @pytest.mark.parametrize("name", STATELESS + ["DBH", "Hybrid"])
    @pytest.mark.parametrize("label", list(_edge_case_graphs()))
    def test_assign_matches_scalar_fallback(self, name, label):
        """Full assign() (vectorised path) vs the base-class per-edge fallback."""
        graph = _edge_case_graphs()[label]
        vectorised = make_partitioner(name).assign(graph, 5).partition_of

        scalar_strategy = make_partitioner(name)
        if isinstance(scalar_strategy, (DegreeBasedHashing, HybridCut)):
            # Stateful-context strategies: rebuild the degree context, then
            # force the scalar fallback while it is live.
            scalar = _scalar_with_context(scalar_strategy, graph, 5)
        else:
            scalar = PartitionStrategy.assign_array(
                scalar_strategy, graph.src, graph.dst, 5
            )
        assert vectorised.tolist() == scalar.tolist()

    def test_default_fallback_calls_per_edge_in_stream_order(self, small_social_graph):
        # The abstract fallback is the extension point for third-party
        # strategies, which may be stateful: it must keep the seed contract
        # of one partition_edge call per edge, duplicates included.
        class TracingModulo(PartitionStrategy):
            name = "tracing"
            seen = []

            def partition_edge(self, src, dst, num_partitions):
                type(self).seen.append((src, dst))
                return (src + dst) % num_partitions

        graph = Graph([1, 1, 1, 2], [2, 2, 2, 3])  # three duplicate edges
        assignment = TracingModulo().assign(graph, 4)
        assert assignment.partition_of.tolist() == [3, 3, 3, 1]
        assert TracingModulo.seen == [(1, 2), (1, 2), (1, 2), (2, 3)]


def _scalar_with_context(strategy, graph, num_partitions):
    """Run the per-edge scalar fallback with the strategy's degree context set."""
    if isinstance(strategy, DegreeBasedHashing):
        strategy._degrees = DegreeLookup.count(
            graph.vertex_ids, np.concatenate([graph.src, graph.dst])
        )
    else:  # HybridCut
        strategy._in_degrees = DegreeLookup.count(graph.vertex_ids, graph.dst)
        if strategy.threshold is not None:
            strategy._effective_threshold = float(strategy.threshold)
        elif graph.num_vertices:
            strategy._effective_threshold = max(
                1.0, 4.0 * graph.num_edges / graph.num_vertices
            )
    return PartitionStrategy.assign_array(strategy, graph.src, graph.dst, num_partitions)
