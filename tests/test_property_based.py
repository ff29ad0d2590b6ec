"""Property-based tests (hypothesis) for core invariants.

These cover the invariants that must hold for *any* graph and *any*
partitioning, not just the fixtures: metric identities, partitioner
determinism and range safety, and algorithm correctness against
single-machine oracles.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.connected_components import (
    ConnectedComponentsKernel,
    connected_components,
)
from repro.algorithms.degrees import degree_count
from repro.algorithms.pagerank import pagerank
from repro.algorithms.shortest_paths import multi_source_distances, shortest_paths
from repro.algorithms.triangle_count import total_triangles, triangle_count
from repro.core.graph import Graph
from repro.core.properties import triangle_count as exact_triangles
from repro.engine.cluster import paper_cluster
from repro.engine import messaging
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import pregel
from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.registry import (
    PAPER_PARTITIONER_NAMES,
    available_partitioners,
    make_partitioner,
)
from pregel_oracles import (
    connected_components_scalar,
    degree_count_scalar,
    multi_source_distances_scalar,
    pagerank_scalar,
    reference_pagerank,
    shortest_paths_scalar,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=30, min_edges=1, max_edges=120):
    """Random small directed multigraphs (self-loops and duplicates allowed)."""
    num_vertices = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=min_edges, max_value=max_edges))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(
        st.lists(st.tuples(vertex, vertex), min_size=num_edges, max_size=num_edges)
    )
    return Graph.from_edges(edges, name="hypothesis")


@st.composite
def partitioned_graphs(draw):
    graph = draw(graphs())
    strategy = draw(st.sampled_from(PAPER_PARTITIONER_NAMES))
    num_partitions = draw(st.integers(min_value=1, max_value=12))
    return PartitionedGraph.partition(graph, strategy, num_partitions)


class TestPartitioningProperties:
    @SETTINGS
    @given(graph=graphs(), name=st.sampled_from(PAPER_PARTITIONER_NAMES), parts=st.integers(1, 16))
    def test_assignment_in_range_and_deterministic(self, graph, name, parts):
        strategy = make_partitioner(name)
        first = strategy.assign(graph, parts)
        second = strategy.assign(graph, parts)
        assert first.partition_of.tolist() == second.partition_of.tolist()
        if graph.num_edges:
            assert 0 <= first.partition_of.min()
            assert first.partition_of.max() < parts

    @SETTINGS
    @given(pgraph=partitioned_graphs())
    def test_metric_identities(self, pgraph):
        metrics = compute_metrics(pgraph.assignment)
        # Replica-count breakdowns from Section 3.1 of the paper.
        assert metrics.comm_cost + metrics.non_cut == metrics.total_replicas
        assert metrics.vertices_to_same + metrics.vertices_to_other == metrics.total_replicas
        assert metrics.cut + metrics.non_cut <= pgraph.graph.num_vertices
        assert metrics.comm_cost >= 2 * metrics.cut
        # Edge bookkeeping.
        assert metrics.max_partition_edges <= pgraph.graph.num_edges
        assert sum(pgraph.assignment.edges_per_partition()) == pgraph.graph.num_edges
        if pgraph.graph.num_edges:
            assert metrics.balance >= 1.0 - 1e-9

    @SETTINGS
    @given(pgraph=partitioned_graphs())
    def test_partitions_and_routing_consistent(self, pgraph):
        edge_bounds = pgraph.triplets().edge_bounds
        assert edge_bounds[-1] == pgraph.graph.num_edges
        assert (np.diff(edge_bounds) >= 0).all()
        routing = pgraph.routing
        offsets, partitions, _ = routing.broadcast_plan(
            paper_cluster().executor_map(pgraph.num_partitions)
        )
        # Every vertex syncs at most its replicas; placed ones sit on
        # ``membership.vertices`` in the graph's dense order.
        sync = np.diff(offsets)
        placed = np.searchsorted(pgraph.graph.vertex_ids, routing.membership.vertices)
        assert (sync[placed] <= routing.membership.counts).all()
        assert sync.sum() == sync[placed].sum()
        for parts in (routing.membership.pair_partition, partitions):
            assert ((0 <= parts) & (parts < pgraph.num_partitions)).all()

    @SETTINGS
    @given(graph=graphs(), parts=st.integers(4, 16))
    def test_2d_replication_bound(self, graph, parts):
        side = int(parts ** 0.5)
        perfect_square = side * side
        strategy = make_partitioner("2D")
        assignment = strategy.assign(graph, perfect_square)
        bound = 2 * side - 1
        assert (assignment.membership().counts <= bound).all()


def _bfs_components(graph):
    adjacency = graph.adjacency(direction="both")
    labels = {}
    for start in adjacency:
        if start in labels:
            continue
        queue = deque([start])
        members = {start}
        while queue:
            node = queue.popleft()
            for neighbour in adjacency[node]:
                if neighbour not in members:
                    members.add(neighbour)
                    queue.append(neighbour)
        label = min(members)
        for member in members:
            labels[member] = label
    return labels


class TestAlgorithmProperties:
    @SETTINGS
    @given(pgraph=partitioned_graphs())
    def test_connected_components_match_bfs_oracle(self, pgraph):
        result = connected_components(pgraph)
        assert result.vertex_values == _bfs_components(pgraph.graph)

    @SETTINGS
    @given(pgraph=partitioned_graphs(), iterations=st.integers(1, 5))
    def test_pagerank_matches_reference(self, pgraph, iterations):
        result = pagerank(pgraph, num_iterations=iterations)
        expected = reference_pagerank(pgraph.graph, num_iterations=iterations)
        for vertex, value in expected.items():
            assert result.vertex_values[vertex] == pytest.approx(value, abs=1e-9)

    @SETTINGS
    @given(pgraph=partitioned_graphs())
    def test_triangle_count_matches_exact_count(self, pgraph):
        result = triangle_count(pgraph)
        assert total_triangles(result) == exact_triangles(pgraph.graph)

    @SETTINGS
    @given(pgraph=partitioned_graphs())
    def test_simulated_time_is_positive_and_finite(self, pgraph):
        result = pagerank(pgraph, num_iterations=2)
        assert 0 < result.simulated_seconds < 1e6


#: Each entry point beside its scalar oracle in ``pregel_oracles``.
_ORACLE_PAIRS = {
    "PR": (pagerank, pagerank_scalar),
    "CC": (connected_components, connected_components_scalar),
    "SSSP": (shortest_paths, shortest_paths_scalar),
    "MS": (multi_source_distances, multi_source_distances_scalar),
    "DEG": (degree_count, degree_count_scalar),
}


@st.composite
def oracle_cases(draw):
    """A random graph under any registry partitioner, one algorithm and
    its arguments (iteration caps, landmark or source lists, direction)."""
    graph = draw(graphs())
    name = draw(st.sampled_from(available_partitioners()))
    pgraph = PartitionedGraph.partition(graph, name, draw(st.integers(1, 12)))
    algorithm = draw(st.sampled_from(sorted(_ORACLE_PAIRS)))
    vertices = st.sampled_from(graph.vertex_ids.tolist())
    if algorithm == "PR":
        args = {"num_iterations": draw(st.integers(1, 5))}
    elif algorithm == "CC":
        args = {"max_iterations": draw(st.none() | st.integers(0, 5))}
    elif algorithm == "SSSP":
        args = {"landmarks": draw(st.lists(vertices, min_size=1, max_size=4))}
    elif algorithm == "MS":
        args = {"sources": draw(st.lists(vertices, min_size=1, max_size=4))}
    else:
        args = {"direction": draw(st.sampled_from(["out", "in", "both"]))}
    return pgraph, algorithm, args


class TestEntryPointsMatchScalarOracles:
    @SETTINGS
    @given(case=oracle_cases())
    def test_bit_identical_to_oracle(self, case):
        pgraph, algorithm, args = case
        entry_point, oracle = _ORACLE_PAIRS[algorithm]
        got, expected = entry_point(pgraph, **args), oracle(pgraph, **args)
        assert got.vertex_values == expected.vertex_values
        assert got.num_supersteps == expected.num_supersteps
        assert got.report.supersteps == expected.report.supersteps


@st.composite
def frontier_cases(draw):
    """Graphs with self-loops, duplicate edges and isolated vertices, under
    up to more partitions than vertices."""
    num_vertices = draw(st.integers(2, 20))
    vertex = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=0, max_size=60))
    extra = draw(st.integers(0, 4))
    graph = Graph.from_edges(
        edges, vertices=list(range(num_vertices + extra)), name="hypothesis"
    )
    name = draw(st.sampled_from(PAPER_PARTITIONER_NAMES))
    parts = draw(st.integers(1, num_vertices + extra + 3))
    return PartitionedGraph.partition(graph, name, parts)


def _label_run(direction):
    def run(pgraph):
        ids = pgraph.graph.vertex_ids
        return pregel(
            pgraph,
            initial_values=ids.copy(),
            max_iterations=ids.size + 1,
            active_direction=direction,
            message_kernel=ConnectedComponentsKernel(),
        )
    return run


class TestFrontierPathsAgree:
    """The edge and index scans, and the mark and sort plans, forced each
    way, give identical values and superstep records."""

    @SETTINGS
    @given(
        pgraph=frontier_cases(),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    )
    def test_forced_paths_are_identical(self, pgraph, picks):
        ids = pgraph.graph.vertex_ids.tolist()
        chosen = [ids[pick % len(ids)] for pick in picks]
        runs = {
            "CC": connected_components,
            "SSSP": lambda pg: shortest_paths(pg, chosen),
            "multi-source": lambda pg: multi_source_distances(pg, chosen),
            **{direction: _label_run(direction) for direction in ("out", "in", "both")},
        }
        for name, run in runs.items():
            outcomes = []
            for share in (0.0, np.inf):
                for factor in (0.0, np.inf):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(messaging, "_INDEX_SCAN_SHARE", share)
                        patch.setattr(messaging, "_SORT_PLAN_FACTOR", factor)
                        result = run(pgraph)
                    values = getattr(result, "values", None)
                    if values is None:
                        values = result.vertex_values
                    outcomes.append((np.asarray(values).tobytes(), result.report.supersteps))
            assert all(outcome == outcomes[0] for outcome in outcomes[1:]), name
