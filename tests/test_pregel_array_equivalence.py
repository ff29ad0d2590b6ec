"""Equivalence: the array-native Pregel superstep path vs the scalar loop.

PageRank, Connected Components, ShortestPaths, TriangleCount and the
degree computation run on vectorised message kernels.  These tests prove
the array path is *observationally identical* to the seed's scalar
callbacks on the scalar loop (kept in ``pregel_oracles`` and
``triangle_oracles``) — bit-identical vertex values and identical
:class:`SuperstepRecord` counters (edges scanned, remote/local messages,
partition compute units, simulated seconds) — across every registered
partitioner and the awkward graph shapes (duplicate edges, self-loops,
isolated vertices), mirroring ``tests/test_array_equivalence.py`` for the
partitioning pipeline.
"""

import math

import numpy as np
import pytest

from repro.algorithms.connected_components import (
    ConnectedComponentsKernel,
    connected_components,
)
from repro.algorithms.degrees import degree_count
from repro.algorithms.pagerank import pagerank
from repro.algorithms.shortest_paths import shortest_paths
from repro.algorithms.triangle_count import triangle_count
from repro.core.graph import Graph
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import pregel
from repro.ooc import GraphChunkSource, ingest_source
from repro.partitioning.registry import available_partitioners
from repro.session.store import ArtifactStore
from pregel_oracles import (
    connected_components_scalar,
    degree_count_scalar,
    master_partition,
    pagerank_scalar,
    shortest_paths_scalar,
)
from triangle_oracles import triangle_count_scalar

ALL_PARTITIONERS = available_partitioners()


def _edge_case_graphs():
    return {
        "dups-and-loops": Graph([4, 4, 4, 9, 9, 2], [7, 7, 4, 2, 2, 9]),
        "sparse-ids": Graph([0, 10**9, 10**12], [10**9, 10**12, 0]),
        "isolated": Graph([1, 2], [2, 3], vertices=[100, 200]),
        "empty": Graph([], [], vertices=[1, 2, 3]),
    }


def _landmarks_of(graph, count=3):
    ids = graph.vertex_ids.tolist()
    return ids[: min(count, len(ids))]


def _runners(pgraph):
    """One ``array -> result`` callable per algorithm, on a fixed setup:
    the library entry point when ``array`` is true, else its scalar oracle."""
    landmarks = _landmarks_of(pgraph.graph)
    return {
        "PR": lambda a: (pagerank if a else pagerank_scalar)(pgraph, num_iterations=5),
        "CC": lambda a: (connected_components if a else connected_components_scalar)(pgraph),
        "SSSP": lambda a: (shortest_paths if a else shortest_paths_scalar)(pgraph, landmarks),
        "TR": lambda a: (triangle_count if a else triangle_count_scalar)(pgraph),
        "DEG": lambda a: (degree_count if a else degree_count_scalar)(pgraph, direction="both"),
    }


def _assert_identical(scalar, array):
    # Exact (bit-identical) vertex values: dict equality compares floats
    # with ==, so any reassociated float sum would fail here.
    assert scalar.vertex_values == array.vertex_values
    assert scalar.num_supersteps == array.num_supersteps
    # SuperstepRecord is a dataclass: == covers every counter and every
    # derived simulated-seconds figure.
    assert scalar.report.supersteps == array.report.supersteps
    assert scalar.report.load_seconds == array.report.load_seconds
    assert scalar.simulated_seconds == array.simulated_seconds


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@pytest.mark.parametrize("algorithm", ["PR", "CC", "SSSP", "TR", "DEG"])
class TestArraySuperstepEquivalence:
    def test_identical_on_social_graph(self, name, algorithm, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, name, 8)
        run = _runners(pgraph)[algorithm]
        _assert_identical(run(False), run(True))

    @pytest.mark.parametrize("label", list(_edge_case_graphs()))
    def test_identical_on_edge_case_graphs(self, name, algorithm, label):
        graph = _edge_case_graphs()[label]
        pgraph = PartitionedGraph.partition(graph, name, 5)
        run = _runners(pgraph)[algorithm]
        _assert_identical(run(False), run(True))


def _parallel_runners(pgraph):
    """One ``parallel_workers=...`` callable per Pregel algorithm."""
    landmarks = _landmarks_of(pgraph.graph)
    return {
        "PR": lambda w: pagerank(pgraph, num_iterations=5, parallel_workers=w),
        "CC": lambda w: connected_components(pgraph, parallel_workers=w),
        "SSSP": lambda w: shortest_paths(pgraph, landmarks, parallel_workers=w),
    }


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
class TestParallelWorkersEquivalence:
    """The shared-memory parallel executor vs the serial array path.

    ``REPRO_PARALLEL_MIN_ACTIVE=0`` forces even these tiny graphs through
    the worker fan-out (the production threshold would run them serially),
    so the two-round fold really executes in the pool.  Bit-identity is
    asserted the same way as for scalar-vs-array: exact vertex values and
    ``SuperstepRecord`` equality at every worker count.
    """

    @pytest.fixture(autouse=True)
    def _force_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ACTIVE", "0")

    def test_identical_on_social_graph(self, name, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, name, 8)
        for run in _parallel_runners(pgraph).values():
            serial = run(None)
            for workers in (1, 2, 4):
                _assert_identical(serial, run(workers))

    @pytest.mark.parametrize("label", list(_edge_case_graphs()))
    def test_identical_on_edge_case_graphs(self, name, label):
        graph = _edge_case_graphs()[label]
        pgraph = PartitionedGraph.partition(graph, name, 5)
        for run in _parallel_runners(pgraph).values():
            serial = run(None)
            for workers in (1, 2, 4):
                _assert_identical(serial, run(workers))


def test_parallel_identical_without_threshold_override(small_social_graph):
    # No REPRO_PARALLEL_MIN_ACTIVE override: data-driven supersteps below
    # the production threshold take the in-parent serial branch while
    # always-active ones fan out — the mixed path must stay bit-identical.
    pgraph = PartitionedGraph.partition(small_social_graph, "2D", 8)
    for run in _parallel_runners(pgraph).values():
        _assert_identical(run(None), run(2))


@pytest.mark.parametrize("direction", ["out", "in", "both"])
def test_degree_directions_identical(direction, small_social_graph):
    pgraph = PartitionedGraph.partition(small_social_graph, "2D", 8)
    _assert_identical(
        degree_count_scalar(pgraph, direction=direction),
        degree_count(pgraph, direction=direction),
    )


@pytest.mark.parametrize("scan", ["in-process", "pool", "stream"])
@pytest.mark.parametrize("direction", ["out", "in", "both"])
def test_active_directions_identical_on_every_scan(
    direction, scan, small_social_graph, tmp_path, monkeypatch
):
    # Every shipped algorithm passes "either"; the other three mask
    # branches are exercised here under each scan strategy, against the
    # scalar loop running the same label-propagation triple.
    monkeypatch.setenv("REPRO_PARALLEL_MIN_ACTIVE", "0")
    graph = small_social_graph
    pgraph = PartitionedGraph.partition(graph, "2D", 8)
    kernel_graph = pgraph
    if scan == "stream":
        kernel_graph, _ = ingest_source(
            ArtifactStore(tmp_path / "store"),
            GraphChunkSource(graph, chunk_edges=53),
            "2D",
            8,
            chunk_edges=53,
        )
        assert kernel_graph.stream_supersteps

    def send_message(src, src_value, dst, dst_value):
        if src_value < dst_value:
            return [(dst, src_value)]
        if dst_value < src_value:
            return [(src, dst_value)]
        return []

    ids = graph.vertex_ids

    def run(target, kernel, workers):
        result = pregel(
            target,
            initial_values={v: v for v in ids.tolist()} if kernel is None else ids.copy(),
            initial_message=math.inf,
            vertex_program=lambda v, value, m: value if math.isinf(m) else min(value, int(m)),
            send_message=send_message,
            merge_message=min,
            max_iterations=graph.num_vertices + 1,
            active_direction=direction,
            vertex_compute_units=0.5,
            message_kernel=kernel,
            parallel_workers=workers,
        )
        if kernel is not None:  # dense labels, in the scalar loop's dict form
            result.vertex_values = dict(zip(ids.tolist(), result.vertex_values.tolist()))
        return result

    scalar = run(pgraph, None, None)
    kernelised = run(
        kernel_graph, ConnectedComponentsKernel(), 2 if scan == "pool" else None
    )
    assert scalar.num_supersteps > 2  # the frontier really shrank under the mask
    assert scalar.vertex_values == kernelised.vertex_values
    assert scalar.report.supersteps == kernelised.report.supersteps


def test_road_graph_cc_identical(small_road_graph):
    # Multi-component graph: the shrinking active set exercises the
    # data-driven (non-always-active) masks and the early-termination
    # superstep of both paths.
    pgraph = PartitionedGraph.partition(small_road_graph, "DC", 6)
    _assert_identical(
        connected_components_scalar(pgraph),
        connected_components(pgraph),
    )


def test_pagerank_iteration_cap_identical(small_social_graph):
    pgraph = PartitionedGraph.partition(small_social_graph, "1D", 4)
    for iterations in (1, 3):
        _assert_identical(
            pagerank_scalar(pgraph, num_iterations=iterations),
            pagerank(pgraph, num_iterations=iterations),
        )


def test_triplet_arrays_match_partition_scan(small_social_graph):
    """The cached triplet arrays enumerate exactly the partition-major scan
    the scalar loop performs."""
    pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 7)
    trip = pgraph.triplets()
    assert pgraph.triplets() is trip  # cached
    placement = pgraph.assignment.partition_of.tolist()
    expected = sorted(
        ((p, s, d) for (s, d), p in zip(small_social_graph.edge_pairs(), placement)),
        key=lambda row: row[0],  # stable: stream order inside a partition
    )
    ids = trip.vertex_ids
    got = list(
        zip(
            np.repeat(np.arange(trip.num_partitions), np.diff(trip.edge_bounds)).tolist(),
            ids[trip.src].tolist(),
            ids[trip.dst].tolist(),
        )
    )
    assert got == expected
    assert np.array_equal(
        trip.master_of,
        np.array([master_partition(int(v), 7) for v in ids.tolist()]),
    )
