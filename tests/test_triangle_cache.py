"""The per-graph triangle cache against the per-placement oracle.

:func:`triangle_count` intersects once per graph (``Graph.triangles()``)
and only does the accounting per placement.  ``triangle_oracles`` keeps
the implementation that ran every phase per placement; the two must agree
on values and on every simulated counter, for every registry partitioner.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms.triangle_count import GraphTriangles, triangle_count
from repro.core.graph import Graph
from repro.engine.partitioned_graph import PartitionedGraph
from repro.partitioning.registry import available_partitioners
from triangle_oracles import triangle_count_array

ALL_PARTITIONERS = available_partitioners()


def _zoo():
    return {
        "dups-and-reciprocal": Graph([0, 1, 2, 1, 2, 0, 0, 3, 3], [1, 2, 0, 0, 1, 2, 1, 0, 2]),
        "self-loops": Graph([4, 4, 4, 9, 9, 2, 7], [7, 7, 4, 2, 2, 9, 7]),
        "only-self-loops": Graph([1, 2, 2], [1, 2, 2]),
        "sparse-ids": Graph([0, 10**9, 10**12, 0], [10**9, 10**12, 0, 10**12]),
        "isolated": Graph([1, 2, 3], [2, 3, 1], vertices=[100, 200]),
        "empty": Graph([], [], vertices=[1, 2, 3]),
        "no-vertices": Graph([], []),
    }


def _graph(label, small_social_graph):
    return small_social_graph if label == "social" else _zoo()[label]


@pytest.mark.parametrize("num_partitions", [1, 7, 128])
@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@pytest.mark.parametrize("label", [*_zoo(), "social"])
def test_matches_per_placement_oracle(label, name, num_partitions, small_social_graph):
    pgraph = PartitionedGraph.partition(_graph(label, small_social_graph), name, num_partitions)
    expected = triangle_count_array(pgraph)
    got = triangle_count(pgraph)
    assert got.vertex_values == expected.vertex_values
    assert got.num_supersteps == expected.num_supersteps
    assert got.report.supersteps == expected.report.supersteps
    assert got.report.load_seconds == expected.report.load_seconds
    assert got.simulated_seconds == expected.simulated_seconds


def test_graph_level_routine_runs_once_per_graph(small_social_graph, monkeypatch):
    calls = []
    build = GraphTriangles.from_graph

    def spy(graph):
        calls.append(graph)
        return build(graph)

    monkeypatch.setattr(GraphTriangles, "from_graph", spy)
    placements = [
        PartitionedGraph.partition(small_social_graph, name, k)
        for name in ("RVC", "1D", "2D", "CRVC", "SC", "DC")
        for k in (4, 16)
    ]
    assert len(placements) == 12
    totals = {sum(triangle_count(pgraph).vertex_values.values()) for pgraph in placements}
    assert len(totals) == 1
    assert calls == [small_social_graph]


def test_results_own_their_values(clique_ring_graph):
    pgraph = PartitionedGraph.partition(clique_ring_graph, "2D", 4)
    first = triangle_count(pgraph)
    expected = dict(first.vertex_values)
    first.vertex_values.clear()
    assert triangle_count(pgraph).vertex_values == expected


def test_cache_is_released_with_the_graph(clique_ring_graph):
    graph = Graph(clique_ring_graph.src, clique_ring_graph.dst)
    pgraph = PartitionedGraph.partition(graph, "CRVC", 5)
    result = triangle_count(pgraph)
    assert graph.triangles() is graph.triangles()
    assert graph.triangles().nbytes > 0
    graph_ref = weakref.ref(graph)
    cache_ref = weakref.ref(graph.triangles().edges_by_code)
    del graph, pgraph, result
    gc.collect()
    assert graph_ref() is None
    assert cache_ref() is None


def test_cached_arrays_cover_every_non_loop_edge(small_social_graph):
    shared = small_social_graph.triangles()
    non_loops = np.flatnonzero(small_social_graph.src != small_social_graph.dst)
    assert np.array_equal(np.sort(shared.edges_by_code), non_loops)
    assert shared.probe_sizes.size == shared.group_starts.size
