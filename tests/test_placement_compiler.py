"""The placement compiler against the four passes it replaced.

``compile_placement`` derives a placement's edge order, replica slots and
vertex-major membership from three sorts.  Before it, four passes built
the same arrays, each re-deriving an order the previous one had: a
packed-key ``np.unique`` for the membership (with a 2-column fallback for
ids that would overflow the packing), a stable argsort grouping the edges
by partition, a per-partition ``searchsorted`` into the mirror list, and a
``searchsorted`` of every mirror list into the vertex table.  That code
lives on here as the oracle, and every array must come out equal — values
and dtypes — for every registry partitioner, over an edge-case zoo.
"""

import numpy as np
import pytest

from repro.core.graph import Graph
from repro.datasets.generators import social_graph
from repro.engine.partitioned_graph import PartitionedGraph
from repro.ooc import GraphChunkSource, ingest_source
from repro.partitioning.membership import master_partition_array
from repro.partitioning.registry import available_partitioners
from repro.session.store import ArtifactStore


# ----------------------------------------------------------------------
# The oracle: the builder as it stood before the compiler.
# ----------------------------------------------------------------------
def oracle_pairs(src, dst, partition_of, num_partitions):
    """Distinct ``(vertex, partition)`` pairs sorted by vertex then partition."""
    vertex = np.concatenate([src, dst]).astype(np.int64, copy=False)
    partition = np.concatenate([partition_of, partition_of]).astype(np.int64, copy=False)
    if vertex.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    max_vertex = int(vertex.max())
    if max_vertex <= (np.iinfo(np.int64).max - (num_partitions - 1)) // num_partitions:
        keys = np.unique(vertex * np.int64(num_partitions) + partition)
        pair_vertex = keys // num_partitions
        return pair_vertex, keys - pair_vertex * num_partitions
    stacked = np.unique(np.stack([vertex, partition], axis=1), axis=0)
    return np.ascontiguousarray(stacked[:, 0]), np.ascontiguousarray(stacked[:, 1])


def oracle_triplets(graph, partition_of, num_partitions):
    """The partition-major triplet arrays, built partition by partition."""
    vertex_ids = graph.vertex_ids
    order = np.argsort(partition_of, kind="stable")
    src_sorted, dst_sorted = graph.src[order], graph.dst[order]
    bounds = np.searchsorted(partition_of[order], np.arange(num_partitions + 1))
    pair_vertex, pair_partition = oracle_pairs(
        graph.src, graph.dst, partition_of, num_partitions
    )
    by_partition = np.argsort(pair_partition, kind="stable")
    mirror_bounds = np.searchsorted(
        pair_partition[by_partition], np.arange(num_partitions + 1)
    )
    mirrors = [
        pair_vertex[by_partition][mirror_bounds[pid]:mirror_bounds[pid + 1]]
        for pid in range(num_partitions)
    ]
    edge_bounds = np.cumsum([0] + np.diff(bounds).tolist(), dtype=np.int64)
    slot_bounds = np.cumsum([0] + [m.size for m in mirrors], dtype=np.int64)
    num_edges, num_slots = int(edge_bounds[-1]), int(slot_bounds[-1])
    src = np.empty(num_edges, dtype=np.int64)
    dst = np.empty(num_edges, dtype=np.int64)
    endpoint_slot = np.empty(2 * num_edges, dtype=np.int32)
    slot_vertex = np.empty(num_slots, dtype=np.int32)
    for pid, mirror in enumerate(mirrors):
        first_slot = slot_bounds[pid]
        global_of_mirror = np.searchsorted(vertex_ids, mirror)
        slot_vertex[first_slot:slot_bounds[pid + 1]] = global_of_mirror
        edges = slice(edge_bounds[pid], edge_bounds[pid + 1])
        local_src = np.searchsorted(mirror, src_sorted[bounds[pid]:bounds[pid + 1]])
        local_dst = np.searchsorted(mirror, dst_sorted[bounds[pid]:bounds[pid + 1]])
        src[edges] = global_of_mirror[local_src]
        dst[edges] = global_of_mirror[local_dst]
        endpoint_slot[2 * edges.start:2 * edges.stop:2] = local_src + first_slot
        endpoint_slot[2 * edges.start + 1:2 * edges.stop:2] = local_dst + first_slot
    master_of = master_partition_array(vertex_ids, num_partitions)
    slot_pid = np.repeat(np.arange(num_partitions), np.diff(slot_bounds))
    return {
        "src": src,
        "dst": dst,
        "endpoint_slot": endpoint_slot,
        "edge_bounds": edge_bounds,
        "slot_vertex": slot_vertex,
        "slot_bounds": slot_bounds,
        "slot_shipped": master_of[slot_vertex] != slot_pid,
        "master_of": master_of,
        "pair_vertex": pair_vertex,
        "pair_partition": pair_partition,
    }


def _assert_same(actual: np.ndarray, expected: np.ndarray, name: str) -> None:
    assert actual.dtype == expected.dtype, name
    np.testing.assert_array_equal(actual, expected, err_msg=name)


def _assert_matches_oracle(pgraph) -> None:
    assignment = pgraph.assignment
    expected = oracle_triplets(
        pgraph.graph, assignment.partition_of, assignment.num_partitions
    )
    trip = pgraph.triplets()
    membership = assignment.membership()
    for name in ("src", "dst", "endpoint_slot", "edge_bounds", "slot_vertex",
                 "slot_bounds", "slot_shipped", "master_of"):
        _assert_same(getattr(trip, name), expected[name], name)
    _assert_same(membership.pair_vertex, expected["pair_vertex"], "pair_vertex")
    _assert_same(membership.pair_partition, expected["pair_partition"], "pair_partition")
    starts = np.flatnonzero(
        np.r_[True, expected["pair_vertex"][1:] != expected["pair_vertex"][:-1]]
    ) if expected["pair_vertex"].size else np.empty(0, dtype=np.int64)
    np.testing.assert_array_equal(membership.offsets, np.append(starts, membership.num_pairs))
    np.testing.assert_array_equal(membership.vertices, expected["pair_vertex"][starts])
    # One compile per placement: the membership and the triplets share it.
    assert trip.src is assignment.compiled().src


# ----------------------------------------------------------------------
# The zoo.
# ----------------------------------------------------------------------
HUGE = 2**62


def _zoo():
    return {
        "duplicates": Graph([0, 1, 0, 1, 0, 2, 2, 1, 0, 1], [1, 0, 1, 2, 1, 0, 0, 2, 1, 0]),
        "self-loops": Graph([0, 1, 1, 2, 3, 3, 0], [0, 1, 2, 2, 3, 0, 3]),
        "isolated": Graph([4, 4, 9, 2, 30], [7, 4, 2, 9, 30], vertices=[1, 100, 5000]),
        "empty": Graph([], [], vertices=[3, 8]),
        "no-vertices": Graph([], []),
        "sparse-huge": Graph(
            [HUGE, 0, HUGE + 5, 7, HUGE, HUGE + 5],
            [HUGE + 1, HUGE, 0, HUGE + 5, HUGE, 7],
            vertices=[HUGE + 9],
        ),
        "social": social_graph(num_vertices=60, num_edges=300, seed=3),
    }


@pytest.mark.parametrize("num_partitions", [1, 7, 128])
@pytest.mark.parametrize("partitioner", available_partitioners())
@pytest.mark.parametrize("label", list(_zoo()))
def test_compiled_placement_equals_the_four_pass_builder(label, partitioner, num_partitions):
    graph = _zoo()[label]
    _assert_matches_oracle(PartitionedGraph.partition(graph, partitioner, num_partitions))


def test_partition_slices_are_the_partitions_edges_in_stream_order(small_social_graph):
    pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 7)
    trip = pgraph.triplets()
    ids, placement = trip.vertex_ids, pgraph.assignment.partition_of.tolist()
    pairs = list(small_social_graph.edge_pairs())
    for pid in range(pgraph.num_partitions):
        edges = slice(trip.edge_bounds[pid], trip.edge_bounds[pid + 1])
        expected = [pair for pair, p in zip(pairs, placement) if p == pid]
        assert list(zip(ids[trip.src[edges]].tolist(), ids[trip.dst[edges]].tolist())) == expected
        assert trip.edge_lists()[pid] == expected
        mirrors = ids[trip.slot_vertex[trip.slot_bounds[pid]:trip.slot_bounds[pid + 1]]]
        endpoints = [v for pair in expected for v in pair]
        assert mirrors.tolist() == sorted(set(endpoints))


@pytest.mark.parametrize("strategy", ["Greedy", "HDRF", "2D"])
@pytest.mark.parametrize("label", ["duplicates", "self-loops", "sparse-huge", "social"])
def test_sharded_triplets_equal_the_in_memory_triplets(tmp_path, label, strategy):
    graph = _zoo()[label]
    graph.name = label
    pgraph = PartitionedGraph.partition(graph, strategy, 5)
    sharded, _ = ingest_source(
        ArtifactStore(tmp_path / "store"),
        GraphChunkSource(graph, chunk_edges=3),
        strategy,
        5,
        chunk_edges=3,
    )
    actual, expected = sharded.triplets(), pgraph.triplets()
    for name in ("vertex_ids", "src", "dst", "endpoint_slot", "edge_bounds",
                 "slot_vertex", "slot_bounds", "slot_shipped", "master_of"):
        _assert_same(getattr(actual, name), getattr(expected, name), name)
    # The shard finaliser's membership, from the same slot sort.
    for name in ("pair_vertex", "pair_partition", "offsets"):
        _assert_same(
            getattr(sharded.membership, name),
            getattr(pgraph.assignment.membership(), name),
            name,
        )
