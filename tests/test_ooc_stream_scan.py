"""The mmap stream scan folds through replica slots.

``ooc/pregel_stream.py`` folds each partition's messages into a pass-1
accumulator and mark array sized to the largest partition's mirror count,
built once per scan and reset slot by slot after every partition.  These
tests pin what that buys — no vertex-sized work per partition, one
mirror-map ``searchsorted`` per graph — and that the reuse leaves no
trace: bit-identity with the in-memory engine in the cases a dirty
scratch would show (an empty partition, one-edge chunks, a min-merge run
to convergence, two runs' scans stepped alternately).
"""

import numpy as np
import pytest

from repro.algorithms import (
    choose_landmarks,
    connected_components,
    pagerank,
    shortest_paths,
)
from repro.algorithms.connected_components import ConnectedComponentsKernel
from repro.algorithms.pagerank import PageRankKernel
from repro.core.graph import Graph
from repro.engine.cluster import paper_cluster
from repro.engine.messaging import ArrayMessageKernel, triplet_scan
from repro.engine.partitioned_graph import PartitionedGraph
from repro.ooc import GraphChunkSource, ingest_source
from repro.partitioning.membership import master_partition_array
from repro.session.store import ArtifactStore


def _shard(tmp_path, graph, strategy, num_partitions, chunk_edges=64):
    sharded, _ = ingest_source(
        ArtifactStore(tmp_path / "store"),
        GraphChunkSource(graph, chunk_edges=chunk_edges),
        strategy,
        num_partitions,
        chunk_edges=chunk_edges,
    )
    assert sharded.stream_supersteps
    return sharded


def _assert_identical(actual, expected):
    assert actual.vertex_values == expected.vertex_values
    assert [vars(r) for r in actual.report.supersteps] == [
        vars(r) for r in expected.report.supersteps
    ]


def _algorithms(graph):
    landmarks = choose_landmarks(graph, count=3, seed=5)
    return {
        "PR": lambda g: pagerank(g, num_iterations=4),
        "CC": lambda g: connected_components(g),
        "SSSP": lambda g: shortest_paths(g, landmarks),
    }


def test_no_vertex_sized_work_per_partition(tmp_path, small_social_graph, monkeypatch):
    sharded = _shard(tmp_path, small_social_graph, "2D", 16)
    num_vertices = small_social_graph.num_vertices
    widest = max(p.num_vertices for p in sharded.partitions)
    assert widest < num_vertices

    sizes = []
    identity_array = ArrayMessageKernel.identity_array

    def spy_identity(self, count):
        sizes.append(int(count))
        return identity_array(self, count)

    searches = []
    searchsorted = np.searchsorted

    def spy_searchsorted(*args, **kwargs):
        searches.append(args[1] if len(args) > 1 else kwargs["v"])
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(ArrayMessageKernel, "identity_array", spy_identity)
    monkeypatch.setattr(np, "searchsorted", spy_searchsorted)
    searched = []
    for run in (
        lambda: pagerank(sharded, num_iterations=5),
        lambda: connected_components(sharded),
        lambda: pagerank(sharded, num_iterations=3),
    ):
        sizes.clear()
        result = run()
        scans = len(result.report.supersteps) - 1
        assert scans >= 3
        assert sizes.count(num_vertices) <= scans
        assert all(size <= widest for size in sizes if size != num_vertices)
        searched.append(len(searches))
    # Searches are per graph (the mirror maps: one over all R membership
    # pairs; the routing table), none per partition or per superstep.
    assert searched[0] < sharded.num_partitions
    assert searched == searched[:1] * 3
    num_pairs = sum(p.num_vertices for p in sharded.partitions)
    assert [np.size(needles) for needles in searches].count(num_pairs) == 1


def test_a_zero_edge_partition_is_skipped_cleanly(tmp_path):
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], name="tiny")
    sharded = _shard(tmp_path, graph, "2D", 9, chunk_edges=2)
    empty = [p.partition_id for p in sharded.partitions if p.num_edges == 0]
    loaded = [p.partition_id for p in sharded.partitions if p.num_edges]
    assert any(min(loaded) < pid < max(loaded) for pid in empty)
    pgraph = PartitionedGraph.partition(graph, "2D", 9)
    for run in _algorithms(graph).values():
        _assert_identical(run(sharded), run(pgraph))


def test_one_edge_chunks_match_in_memory(tmp_path, small_social_graph):
    sharded = _shard(tmp_path, small_social_graph, "CRVC", 7)
    sharded.chunk_edges = 1
    pgraph = PartitionedGraph.partition(small_social_graph, "CRVC", 7)
    for run in _algorithms(small_social_graph).values():
        _assert_identical(run(sharded), run(pgraph))


def test_a_fractional_chunk_size_set_after_construction_is_refused(
    tmp_path, small_social_graph
):
    sharded = _shard(tmp_path, small_social_graph, "2D", 4)
    sharded.chunk_edges = 2.5
    with pytest.raises(ValueError, match="chunk_edges"):
        pagerank(sharded, num_iterations=2)


def test_min_merge_run_to_convergence_matches_in_memory(tmp_path, small_road_graph):
    # Label propagation on a multi-component road graph: many supersteps
    # with a shrinking frontier, each folding with np.minimum into the
    # reused accumulator, so a slot left unreset would lower a label.
    sharded = _shard(tmp_path, small_road_graph, "HDRF", 16, chunk_edges=37)
    pgraph = PartitionedGraph.partition(small_road_graph, "HDRF", 16)
    expected = connected_components(pgraph)
    assert len(expected.report.supersteps) > 5
    _assert_identical(connected_components(sharded), expected)
    _assert_identical(connected_components(sharded), expected)


def test_two_runs_step_their_scans_alternately(tmp_path, small_social_graph):
    graph, k = small_social_graph, 8
    sharded = _shard(tmp_path, graph, "HDRF", k)
    trip = PartitionedGraph.partition(graph, "HDRF", k).triplets()
    ids = graph.vertex_ids
    executor_of = paper_cluster().executor_map(k)
    master_of = master_partition_array(ids, k)
    cc, pr = ConnectedComponentsKernel(), PageRankKernel(0.15, graph.out_degree_array())
    runs = [[cc, False, ids.copy()], [pr, True, np.ones(ids.size)]]
    # Both runs' scans exist before either steps, so each owns its scratch.
    scans = [
        (
            sharded.stream_scan(master_of, kernel, executor_of, "either", always),
            triplet_scan(trip, kernel, executor_of, "either", always),
        )
        for kernel, always, _ in runs
    ]
    active = [np.ones(ids.size, dtype=bool), np.ones(ids.size, dtype=bool)]
    for _ in range(5):
        for i, ((kernel, always, state), (streamed, inmem)) in enumerate(zip(runs, scans)):
            got, want = streamed(active[i], state), inmem(active[i], state)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            targets, merged = got[:2]
            if always:
                runs[i][2] = kernel.apply_messages_all(state, targets, merged)
            else:
                runs[i][2] = kernel.apply_messages(state, targets, merged)
                active[i] = np.zeros(ids.size, dtype=bool)
                active[i][targets] = True
