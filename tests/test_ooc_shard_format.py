"""The shard layout: narrow integer members, an uncompressed vertex table.

A shard stores every partition member in the smallest integer dtype that
indexes its mirrors, and the vertex table's arrays each in the narrowest
dtype that holds them (partition ids by ``k``: 8 bits up to 256
partitions, 16 bits from 257).  These tests pin the dtypes at their
boundaries, that values through the narrow layout stay byte-identical to
the in-memory engine, that a shard written in the older int64 / zlib
layout still loads, that the writer's id lookup tables and its binary
search write the same shard, and that defective members and a malformed
edge list never leave a loadable shard behind.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import choose_landmarks, connected_components, pagerank, shortest_paths
from repro.core.graph import Graph
from repro.core.io import narrow_int_dtype
from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import GraphIOError, PartitioningError
from repro.ooc import EdgeListChunkSource, GraphChunkSource, ingest_source, load_sharded_graph
from repro.ooc import shards
from repro.ooc.shards import partition_member_name
from repro.partitioning.registry import (
    available_partitioners,
    canonical_partitioner_name,
    make_partitioner,
)
from repro.session.store import ArtifactStore


def _streams(name):
    try:
        make_partitioner(name).begin_stream(2, 1)
    except PartitioningError:
        return False
    return True


#: Every registry strategy that can place a chunked stream.
STREAMABLE = [name for name in available_partitioners() if _streams(name)]

#: Partition counts either side of the uint8 / uint16 partition id boundary.
BOUNDARY_KS = [1, 2, 255, 256, 257]

VERTEX_COLUMNS = ("vertex_ids", "out_degree", "in_degree", "pair_vertex", "pair_partition")


def _ingest(store, graph, strategy, k, chunk_edges):
    return ingest_source(
        store, GraphChunkSource(graph, chunk_edges=chunk_edges), strategy, k,
        chunk_edges=chunk_edges,
    )


def _key(graph, strategy, k):
    return ArtifactStore.shard_key(graph.name, canonical_partitioner_name(strategy), k, 1.0, 0)


def _stored_vertex_table(store, key):
    with np.load(store.shard_member_path(key, "vtx.npz")) as payload:
        return {name: payload[name] for name in VERTEX_COLUMNS}


def _algorithms(graph):
    landmarks = choose_landmarks(graph, count=2, seed=3)
    return {
        "PR": lambda g: pagerank(g, num_iterations=3),
        "CC": lambda g: connected_components(g),
        "SSSP": lambda g: shortest_paths(g, landmarks),
    }


def _assert_same_values(actual, expected):
    assert actual.values.dtype == expected.values.dtype
    assert actual.values.tobytes() == expected.values.tobytes()
    assert actual.vertex_ids.tobytes() == expected.vertex_ids.tobytes()


@st.composite
def graphs(draw):
    """Random directed multigraphs; up to 400 vertices, so a one-partition
    shard needs 16-bit members."""
    num_vertices = draw(st.integers(min_value=2, max_value=400))
    num_edges = draw(st.integers(min_value=1, max_value=300))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=num_edges, max_size=num_edges))
    return Graph.from_edges(edges, name="hypothesis")


class TestDtypeBoundaries:
    @pytest.mark.parametrize("k", BOUNDARY_KS)
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph=graphs(),
        strategy=st.sampled_from(STREAMABLE),
        chunk_edges=st.integers(min_value=1, max_value=64),
    )
    def test_narrow_shards_stream_the_in_memory_values(
        self, tmp_path_factory, graph, strategy, k, chunk_edges
    ):
        store = ArtifactStore(tmp_path_factory.mktemp("store"))
        sharded, _ = _ingest(store, graph, strategy, k, chunk_edges)

        for partition in sharded.partitions:
            if partition.num_edges:
                local = partition.local_triplets()
                assert local.dtype == np.min_scalar_type(partition.num_vertices - 1)
        sharded.release()

        stored = _stored_vertex_table(store, _key(graph, strategy, k))
        assert stored["pair_partition"].dtype == (np.uint8 if k <= 256 else np.uint16)
        for name in VERTEX_COLUMNS[:-1]:
            column = stored[name]
            assert column.dtype == narrow_int_dtype(column.min(initial=0), column.max(initial=0))
        np.testing.assert_array_equal(stored["vertex_ids"], sharded.graph.vertex_ids)

        pgraph = PartitionedGraph.partition(graph, strategy, k)
        for run in _algorithms(graph).values():
            _assert_same_values(run(sharded), run(pgraph))

    def test_a_one_partition_shard_past_65536_vertices_has_uint32_members(self, tmp_path):
        count = 70_000
        ids = np.arange(count, dtype=np.int64)
        graph = Graph(ids[:-1], ids[1:], name="long-chain")
        store = ArtifactStore(tmp_path / "store")
        sharded, _ = _ingest(store, graph, "1D", 1, chunk_edges=16_384)
        (partition,) = sharded.partitions
        assert partition.num_vertices == count
        assert partition.local_triplets().dtype == np.uint32
        stored = _stored_vertex_table(store, _key(graph, "1D", 1))
        assert stored["pair_partition"].dtype == np.uint8
        assert stored["vertex_ids"].dtype == np.uint32
        pgraph = PartitionedGraph.partition(graph, "1D", 1)
        _assert_same_values(pagerank(sharded, num_iterations=3), pagerank(pgraph, num_iterations=3))


def _rewrite_in_int64_zlib_layout(store, key):
    """Rewrite a shard the way it was written before members were
    narrowed: int64 ``.npy`` members and a ``np.savez_compressed`` vertex
    table of int64 arrays."""
    manifest = store.load_shard_manifest(key)
    for member in manifest["members"]["partitions"].values():
        path = store.shard_member_path(key, member)
        np.save(path, np.load(path).astype(np.int64))
    table = _stored_vertex_table(store, key)
    with open(store.shard_member_path(key, "vtx.npz"), "wb") as handle:
        np.savez_compressed(handle, **{n: a.astype(np.int64) for n, a in table.items()})


def _first_member_path(store, key):
    manifest = store.load_shard_manifest(key)
    pid = min(int(p) for p in manifest["members"]["partitions"])
    return Path(store.shard_member_path(key, partition_member_name(pid)))


#: Raw id layouts of an edge list: numbered from 0, spread ~10^9 apart
#: (as hashed or global SNAP ids are), and all negative.
ID_LAYOUTS = {
    "dense": lambda ids, count: ids,
    "sparse": lambda ids, count: ids * 1_000_000_007,
    "negative": lambda ids, count: ids - count,
}


@st.composite
def edge_lists(draw):
    """``(layout, (edges, 2) raw ids)``: a random multigraph in one layout."""
    num_vertices = draw(st.integers(min_value=2, max_value=60))
    num_edges = draw(st.integers(min_value=1, max_value=120))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=num_edges, max_size=num_edges))
    layout = draw(st.sampled_from(sorted(ID_LAYOUTS)))
    return layout, ID_LAYOUTS[layout](np.array(edges, dtype=np.int64), num_vertices)


def _shard_files(store_root):
    return {path.name: path.read_bytes() for path in (store_root / "shards").iterdir()}


class TestIdTranslation:
    """Pass 2 of the writer looks dense ids up in tables and binary-searches
    sparse or negative ones; both must write the same shard."""

    @pytest.mark.parametrize("k", [1, 2, 257])
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        edges=edge_lists(),
        strategy=st.sampled_from(STREAMABLE),
        chunk_edges=st.integers(min_value=1, max_value=64),
    )
    def test_a_snap_edge_list_shards_the_same_with_the_table_off(
        self, tmp_path_factory, edges, strategy, k, chunk_edges
    ):
        layout, ids = edges
        root = tmp_path_factory.mktemp("ids")
        edge_list = root / "edges.txt"
        edge_list.write_text("# src dst\n" + "".join(f"{a} {b}\n" for a, b in ids.tolist()))

        def ingest(store):
            source = EdgeListChunkSource(edge_list, name="ids", chunk_edges=chunk_edges)
            return ingest_source(store, source, strategy, k, chunk_edges=chunk_edges)[0]

        sharded = ingest(ArtifactStore(root / "table"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shards, "DENSE_ID_FACTOR", 0)
            ingest(ArtifactStore(root / "search")).release()
        assert _shard_files(root / "table") == _shard_files(root / "search")

        # Graph refuses negative ids, so that layout has no in-memory twin.
        if layout != "negative":
            graph = Graph(ids[:, 0], ids[:, 1], name="ids")
            pgraph = PartitionedGraph.partition(graph, strategy, k)
            for run in _algorithms(graph).values():
                _assert_same_values(run(sharded), run(pgraph))
        sharded.release()


class TestStoredLayouts:
    def test_an_int64_zlib_shard_loads_as_a_hit_and_streams_the_same_pagerank(
        self, tmp_path, small_social_graph
    ):
        store = ArtifactStore(tmp_path / "store")
        sharded, _ = _ingest(store, small_social_graph, "HDRF", 6, chunk_edges=64)
        expected = pagerank(sharded, num_iterations=4)
        key = _key(small_social_graph, "HDRF", 6)
        _rewrite_in_int64_zlib_layout(store, key)

        hits = store.stats("shards").hits
        old = load_sharded_graph(store, key)
        assert old is not None
        assert store.stats("shards").hits == hits + 1
        assert {p.local_triplets().dtype for p in old.partitions if p.num_edges} == {
            np.dtype(np.int64)
        }
        _assert_same_values(pagerank(old, num_iterations=4), expected)
        pgraph = PartitionedGraph.partition(small_social_graph, "HDRF", 6)
        _assert_same_values(pagerank(pgraph, num_iterations=4), expected)

    @pytest.mark.parametrize(
        "defect",
        [
            pytest.param(lambda a: a.astype(np.float64), id="float-dtype"),
            pytest.param(lambda a: np.vstack([a, a[:1]]), id="three-rows"),
            pytest.param(lambda a: a[:, :-1], id="one-edge-short"),
            pytest.param(lambda a: np.hstack([a, a[:, :1]]), id="one-edge-over"),
        ],
    )
    def test_a_defective_member_is_a_counted_miss_and_rebuilds(
        self, tmp_path, small_social_graph, defect
    ):
        store = ArtifactStore(tmp_path / "store")
        sharded, _ = _ingest(store, small_social_graph, "Greedy", 4, chunk_edges=100)
        expected = pagerank(sharded, num_iterations=3)
        key = _key(small_social_graph, "Greedy", 4)
        victim = _first_member_path(store, key)
        np.save(victim, np.ascontiguousarray(defect(np.load(victim))))

        misses = store.stats("shards").misses
        assert load_sharded_graph(store, key) is None
        assert store.stats("shards").misses == misses + 1
        rebuilt, report = _ingest(store, small_social_graph, "Greedy", 4, chunk_edges=100)
        assert report.reused is False
        _assert_same_values(pagerank(rebuilt, num_iterations=3), expected)
        assert load_sharded_graph(store, key) is not None


    def test_a_partition_id_past_k_in_the_vertex_table_is_a_counted_miss(
        self, tmp_path, small_social_graph
    ):
        store = ArtifactStore(tmp_path / "store")
        _ingest(store, small_social_graph, "HDRF", 4, chunk_edges=64)
        key = _key(small_social_graph, "HDRF", 4)
        table = _stored_vertex_table(store, key)
        table["pair_partition"] = table["pair_partition"].copy()
        table["pair_partition"][-1] = 4
        with open(store.shard_member_path(key, "vtx.npz"), "wb") as handle:
            np.savez(handle, **table)

        misses = store.stats("shards").misses
        assert load_sharded_graph(store, key) is None
        assert store.stats("shards").misses == misses + 1
        _, report = _ingest(store, small_social_graph, "HDRF", 4, chunk_edges=64)
        assert report.reused is False


class TestMalformedLineMidIngest:
    def _write(self, path, lines):
        path.write_text("# src dst\n" + "".join(f"{line}\n" for line in lines))

    def test_no_half_built_shard_survives_and_a_clean_reingest_succeeds(self, tmp_path):
        rng = np.random.default_rng(5)
        good = [f"{a} {b}" for a, b in rng.integers(0, 40, size=(60, 2)).tolist()]
        edge_list = tmp_path / "edges.txt"
        # Chunks of 8 edges: chunks 0..4 are placed and spilled first.
        self._write(edge_list, good[:45] + ["17 not-a-vertex"] + good[45:])
        store = ArtifactStore(tmp_path / "store")
        source = EdgeListChunkSource(edge_list, name="broken", chunk_edges=8)
        with pytest.raises(GraphIOError, match=r"edges\.txt:47"):
            ingest_source(store, source, "HDRF", 4, chunk_edges=8)

        shards_dir = Path(store.root) / "shards"
        assert list(shards_dir.glob(".ingest-*")) == []
        assert list(shards_dir.glob("*.json")) == []
        key = ArtifactStore.shard_key("broken", "HDRF", 4, 1.0, 0)
        misses = store.stats("shards").misses
        assert load_sharded_graph(store, key) is None
        assert store.stats("shards").misses == misses + 1

        self._write(edge_list, good)
        source = EdgeListChunkSource(edge_list, name="broken", chunk_edges=8)
        sharded, report = ingest_source(store, source, "HDRF", 4, chunk_edges=8)
        assert report.reused is False
        assert sharded.graph.num_edges == len(good)
        assert load_sharded_graph(store, key) is not None
        assert list(shards_dir.glob(".ingest-*")) == []
