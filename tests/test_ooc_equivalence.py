"""The out-of-core equivalence zoo.

Chunked placement must equal whole-array placement edge for edge, and
algorithms over memory-mapped shards must be *bit-identical* to the
in-memory engine: same vertex values, same ``SuperstepRecord`` counters,
at every chunk size.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    choose_landmarks,
    connected_components,
    degree_count,
    pagerank,
    shortest_paths,
)
from repro.core.graph import Graph
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import aggregate_messages
from repro.errors import EngineError, PartitioningError
from repro.ooc import GraphChunkSource, ingest_source, load_sharded_graph
from repro.partitioning.registry import make_partitioner
from repro.session.store import ArtifactStore

#: Strategies with a genuine streaming path: stateful scorers plus the
#: stateless hash families (which stream through the same protocol).
STREAMING_STRATEGIES = ["Greedy", "HDRF", "Fennel", "1D", "2D", "RVC", "CRVC"]

#: Whole-graph-degree strategies that must refuse to stream.
NON_STREAMING_STRATEGIES = ["DBH", "Hybrid"]


def _zoo():
    """Adversarial little graphs: duplicate edges, self-loops, sparse ids."""
    dup = Graph(
        [0, 1, 0, 1, 0, 2, 2, 1, 0, 1],
        [1, 0, 1, 2, 1, 0, 0, 2, 1, 0],
        name="dup-edges",
    )
    loops = Graph(
        [0, 1, 1, 2, 3, 3, 0],
        [0, 1, 2, 2, 3, 0, 3],
        name="self-loops",
    )
    sparse = Graph(
        [5, 1000, 7, 99999, 5, 1000_000],
        [1000, 5, 99999, 7, 1000_000, 5],
        name="sparse-ids",
    )
    return [dup, loops, sparse]


def _chunked_placement(strategy, graph, num_partitions, chunk_edges):
    assigner = strategy.begin_stream(num_partitions, graph.num_edges)
    placements = []
    for start in range(0, graph.num_edges, chunk_edges):
        stop = min(start + chunk_edges, graph.num_edges)
        placements.append(
            assigner.assign_chunk(graph.src[start:stop], graph.dst[start:stop])
        )
    assigner.finish()
    if not placements:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(placements)


class TestChunkedPlacementEquivalence:
    @pytest.mark.parametrize("name", STREAMING_STRATEGIES)
    def test_assign_chunk_matches_assign_on_the_zoo(self, name):
        strategy = make_partitioner(name)
        for graph in _zoo():
            whole = strategy.assign(graph, 3).partition_of
            for chunk_edges in (1, 2, 3, 100):
                chunked = _chunked_placement(
                    make_partitioner(name), graph, 3, chunk_edges
                )
                np.testing.assert_array_equal(
                    chunked, whole, err_msg=f"{name} on {graph.name} @ {chunk_edges}"
                )

    @pytest.mark.parametrize("name", STREAMING_STRATEGIES)
    def test_assign_chunk_matches_assign_on_a_social_graph(
        self, name, small_social_graph
    ):
        whole = make_partitioner(name).assign(small_social_graph, 8).partition_of
        for chunk_edges in (17, 256):
            chunked = _chunked_placement(
                make_partitioner(name), small_social_graph, 8, chunk_edges
            )
            np.testing.assert_array_equal(chunked, whole)

    @pytest.mark.parametrize("name", NON_STREAMING_STRATEGIES)
    def test_whole_graph_strategies_refuse_to_stream(self, name):
        with pytest.raises(PartitioningError, match="stream"):
            make_partitioner(name).begin_stream(4, 100)


def _records(report):
    return [vars(record) for record in report.supersteps]


def _ingest(tmp_path, graph, strategy_name, num_partitions, chunk_edges):
    store = ArtifactStore(tmp_path / "store")
    sharded, _ = ingest_source(
        store,
        GraphChunkSource(graph, chunk_edges=chunk_edges),
        strategy_name,
        num_partitions,
        chunk_edges=chunk_edges,
    )
    return store, sharded


class TestAlgorithmBitIdentity:
    @pytest.mark.parametrize("strategy", ["Greedy", "HDRF", "Fennel"])
    def test_pagerank_matches_in_memory(self, tmp_path, small_social_graph, strategy):
        pgraph = PartitionedGraph.partition(small_social_graph, strategy, 8)
        expected = pagerank(pgraph, num_iterations=5)
        _, sharded = _ingest(tmp_path, small_social_graph, strategy, 8, chunk_edges=53)
        actual = pagerank(sharded, num_iterations=5)
        assert actual.vertex_values == expected.vertex_values
        assert _records(actual.report) == _records(expected.report)

    def test_connected_components_matches_in_memory(self, tmp_path, two_component_graph):
        pgraph = PartitionedGraph.partition(two_component_graph, "Greedy", 3)
        expected = connected_components(pgraph)
        _, sharded = _ingest(tmp_path, two_component_graph, "Greedy", 3, chunk_edges=2)
        actual = connected_components(sharded)
        assert actual.vertex_values == expected.vertex_values
        assert _records(actual.report) == _records(expected.report)

    def test_shortest_paths_matches_in_memory(self, tmp_path, small_social_graph):
        landmarks = choose_landmarks(small_social_graph, count=3, seed=5)
        pgraph = PartitionedGraph.partition(small_social_graph, "HDRF", 4)
        expected = shortest_paths(pgraph, landmarks)
        _, sharded = _ingest(tmp_path, small_social_graph, "HDRF", 4, chunk_edges=97)
        actual = shortest_paths(sharded, landmarks)
        assert actual.vertex_values == expected.vertex_values
        assert _records(actual.report) == _records(expected.report)

    def test_streaming_chunk_size_does_not_change_results(
        self, tmp_path, small_social_graph
    ):
        pgraph = PartitionedGraph.partition(small_social_graph, "Fennel", 4)
        expected = pagerank(pgraph, num_iterations=4)
        _, sharded = _ingest(tmp_path, small_social_graph, "Fennel", 4, chunk_edges=700)
        for chunk_edges in (1, 19, 10_000):
            sharded.chunk_edges = chunk_edges
            actual = pagerank(sharded, num_iterations=4)
            assert actual.vertex_values == expected.vertex_values
            assert _records(actual.report) == _records(expected.report)

    def test_array_mode_over_shards_matches_too(self, tmp_path, small_social_graph):
        # stream_supersteps=False routes shards through the plain array
        # engine (materialised triplets) — the bridge the equivalence
        # arguments rest on.
        pgraph = PartitionedGraph.partition(small_social_graph, "Greedy", 4)
        expected = pagerank(pgraph, num_iterations=4)
        _, sharded = _ingest(tmp_path, small_social_graph, "Greedy", 4, chunk_edges=100)
        sharded.stream_supersteps = False
        actual = pagerank(sharded, num_iterations=4)
        assert actual.vertex_values == expected.vertex_values
        assert _records(actual.report) == _records(expected.report)

    @pytest.mark.parametrize("direction", ["out", "in", "both"])
    def test_aggregate_messages_streams_the_shards(
        self, tmp_path, small_social_graph, direction
    ):
        pgraph = PartitionedGraph.partition(small_social_graph, "HDRF", 6)
        expected = degree_count(pgraph, direction)
        _, sharded = _ingest(tmp_path, small_social_graph, "HDRF", 6, chunk_edges=64)
        sharded.chunk_edges = 50
        actual = degree_count(sharded, direction)
        assert actual.vertex_values == expected.vertex_values
        assert _records(actual.report) == _records(expected.report)
        assert sharded._triplets is None  # nothing materialised in RAM
        with pytest.raises(EngineError, match="out-of-core graphs require an array message kernel"):
            aggregate_messages(
                sharded,
                vertex_values={},
                send_message=lambda src, _s, dst, _d: [(dst, 1)],
                merge_message=lambda a, b: a + b,
            )

    def test_membership_and_partitions_match(self, tmp_path, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "HDRF", 6)
        _, sharded = _ingest(tmp_path, small_social_graph, "HDRF", 6, chunk_edges=64)
        assert sharded.num_partitions == pgraph.num_partitions
        trip = pgraph.triplets()
        for pid, ooc in enumerate(sharded.partitions):
            # A shard partition is the compiled partition's edge and slot
            # slices, its slots stored relative to the partition's first.
            first, last = trip.slot_bounds[pid], trip.slot_bounds[pid + 1]
            edges = slice(trip.edge_bounds[pid], trip.edge_bounds[pid + 1])
            assert ooc.num_edges == edges.stop - edges.start
            np.testing.assert_array_equal(
                trip.vertex_ids[trip.slot_vertex[first:last]], ooc.vertex_ids
            )
            ooc_src, ooc_dst = ooc.local_triplets()
            np.testing.assert_array_equal(
                trip.endpoint_slot[2 * edges.start:2 * edges.stop:2] - first, ooc_src
            )
            np.testing.assert_array_equal(
                trip.endpoint_slot[2 * edges.start + 1:2 * edges.stop:2] - first, ooc_dst
            )


class TestMmapDiscipline:
    def test_local_triplets_views_are_read_only(self, tmp_path, small_social_graph):
        _, sharded = _ingest(tmp_path, small_social_graph, "Greedy", 4, chunk_edges=100)
        partition = next(p for p in sharded.partitions if p.num_edges)
        src, dst = partition.local_triplets()
        for view in (src, dst):
            with pytest.raises(ValueError):
                view[0] = 7

    def test_release_then_reuse(self, tmp_path, small_social_graph):
        _, sharded = _ingest(tmp_path, small_social_graph, "Greedy", 4, chunk_edges=100)
        partition = next(p for p in sharded.partitions if p.num_edges)
        before = np.asarray(partition.local_triplets()[0]).copy()
        sharded.release()
        after = np.asarray(partition.local_triplets()[0])
        np.testing.assert_array_equal(before, after)


class TestCorruptionRecovery:
    def _shard_files(self, store):
        root = Path(store.root) / "shards"
        return sorted(root.glob("*.p*.npy")), sorted(root.glob("*.vtx.npz"))

    def test_truncated_partition_file_is_a_counted_miss_and_rebuilds(
        self, tmp_path, small_social_graph
    ):
        store, sharded = _ingest(tmp_path, small_social_graph, "Greedy", 4, chunk_edges=100)
        baseline = pagerank(sharded, num_iterations=3).vertex_values
        partition_files, _ = self._shard_files(store)
        assert partition_files
        victim = partition_files[0]
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])

        source = GraphChunkSource(small_social_graph, chunk_edges=100)
        rebuilt, report = ingest_source(store, source, "Greedy", 4, chunk_edges=100)
        assert report.reused is False
        stats = store.stats("shards")
        assert stats.misses >= 1
        assert pagerank(rebuilt, num_iterations=3).vertex_values == baseline

    def test_corrupt_vertex_table_is_a_counted_miss_and_rebuilds(
        self, tmp_path, small_social_graph
    ):
        store, sharded = _ingest(tmp_path, small_social_graph, "HDRF", 3, chunk_edges=64)
        _, vertex_tables = self._shard_files(store)
        assert vertex_tables
        vertex_tables[0].write_bytes(b"not a zip at all")
        misses_before = store.stats("shards").misses
        source = GraphChunkSource(small_social_graph, chunk_edges=64)
        rebuilt, report = ingest_source(store, source, "HDRF", 3, chunk_edges=64)
        assert report.reused is False
        assert store.stats("shards").misses == misses_before + 1
        assert rebuilt.graph.num_edges == small_social_graph.num_edges

    def test_deleted_manifest_is_a_plain_miss(self, tmp_path, small_social_graph):
        store, _ = _ingest(tmp_path, small_social_graph, "Fennel", 3, chunk_edges=64)
        for manifest in (Path(store.root) / "shards").glob("*.json"):
            manifest.unlink()
        key = ArtifactStore.shard_key(small_social_graph.name, "Fennel", 3, 1.0, 0)
        misses_before = store.stats("shards").misses
        assert load_sharded_graph(store, key) is None
        assert store.stats("shards").misses == misses_before + 1
