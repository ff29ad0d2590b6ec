"""Shard artifacts in the store and session: keys, info/clear, counters."""

from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import pagerank
from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import AnalysisError
from repro.ooc import GraphChunkSource, ingest_source, load_sharded_graph
from repro.session import ArtifactStore, Session
from repro.session.session import CacheStats


def _ingest(store, graph, strategy="Greedy", num_partitions=4, **kwargs):
    return ingest_source(
        store, GraphChunkSource(graph), strategy, num_partitions, **kwargs
    )


class TestShardKeys:
    def test_key_carries_the_full_identity(self):
        key = ArtifactStore.shard_key("pokec", "Greedy", 16, 0.5, 7)
        assert key["dataset"] == "pokec"
        assert key["num_partitions"] == 16
        assert key["scale"] == 0.5
        assert key["seed"] == 7

    def test_distinct_identities_do_not_collide(self, tmp_path, small_social_graph):
        store = ArtifactStore(tmp_path)
        _ingest(store, small_social_graph, "Greedy", 4)
        _ingest(store, small_social_graph, "Greedy", 8)
        _ingest(store, small_social_graph, "HDRF", 4)
        _ingest(store, small_social_graph, "Greedy", 4, scale=2.0)
        _ingest(store, small_social_graph, "Greedy", 4, seed=3)
        assert store.info().shards == 5

    def test_warm_lookup_is_a_hit_and_identical(self, tmp_path, small_social_graph):
        store = ArtifactStore(tmp_path)
        first, report1 = _ingest(store, small_social_graph, "Fennel", 4)
        warm, report2 = _ingest(store, small_social_graph, "Fennel", 4)
        assert report1.reused is False and report2.reused is True
        stats = store.stats("shards")
        assert (stats.hits, stats.misses) == (1, 1)
        assert pagerank(first, num_iterations=3).vertex_values == pagerank(
            warm, num_iterations=3
        ).vertex_values

    def test_force_rebuilds_and_counts_a_miss(self, tmp_path, small_social_graph):
        store = ArtifactStore(tmp_path)
        _ingest(store, small_social_graph)
        _, report = _ingest(store, small_social_graph, force=True)
        assert report.reused is False
        assert store.stats("shards").misses == 2


class TestStoreInfoAndClear:
    def test_info_counts_manifests_and_sums_sidecar_bytes(
        self, tmp_path, small_social_graph
    ):
        store = ArtifactStore(tmp_path)
        _ingest(store, small_social_graph)
        info = store.info()
        assert info.shards == 1
        shard_dir = Path(store.root) / "shards"
        on_disk = sum(f.stat().st_size for f in shard_dir.iterdir())
        assert info.total_bytes >= on_disk > 0

    def test_clear_kind_shards_removes_sidecars_too(self, tmp_path, small_social_graph):
        store = ArtifactStore(tmp_path)
        _ingest(store, small_social_graph)
        removed = store.clear(kind="shards")
        assert removed >= 1
        assert store.info().shards == 0
        assert list((Path(store.root) / "shards").glob("*")) == []

    def test_clear_all_covers_shards(self, tmp_path, small_social_graph):
        store = ArtifactStore(tmp_path)
        _ingest(store, small_social_graph)
        store.clear()
        assert store.info().shards == 0
        assert store.info().total_bytes == 0

    def test_discard_shard_unpublishes(self, tmp_path, small_social_graph):
        store = ArtifactStore(tmp_path)
        _, report = _ingest(store, small_social_graph)
        key = ArtifactStore.shard_key(
            small_social_graph.name, "Greedy", 4, 1.0, 0
        )
        assert store.load_shard_manifest(key) is not None
        store.discard_shard(key)
        assert store.load_shard_manifest(key) is None
        assert store.info().shards == 0


class TestSessionShardedPartition:
    def test_requires_a_store(self):
        session = Session(scale=0.3, seed=11)
        with pytest.raises(AnalysisError, match="store"):
            session.sharded_partition("roadnet-pa", "Greedy", 4)

    def test_rejects_registered_graphs(self, tmp_path, small_social_graph):
        session = Session(scale=0.3, seed=11, store=str(tmp_path))
        session.add_graph("mine", small_social_graph)
        with pytest.raises(AnalysisError, match="registered"):
            session.sharded_partition("mine", "Greedy", 4)

    def test_rejects_non_positive_partition_counts(self, tmp_path):
        session = Session(scale=0.3, seed=11, store=str(tmp_path))
        with pytest.raises(AnalysisError, match=">= 1"):
            session.sharded_partition("roadnet-pa", "Greedy", 0)

    @pytest.mark.parametrize("chunk_edges", [2.5, float("nan"), True, 0])
    def test_rejects_a_chunk_size_that_is_not_a_positive_integer(
        self, tmp_path, small_social_graph, chunk_edges
    ):
        session = Session(scale=0.3, seed=11, store=str(tmp_path / "session"))
        with pytest.raises(ValueError, match="chunk_edges"):
            session.sharded_partition("roadnet-pa", "Greedy", 4, chunk_edges=chunk_edges)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ValueError, match="chunk_edges"):
            _ingest(store, small_social_graph, chunk_edges=chunk_edges)
        assert store.info().shards == 0
        _ingest(store, small_social_graph)
        key = ArtifactStore.shard_key(small_social_graph.name, "Greedy", 4, 1.0, 0)
        hits = store.stats("shards").hits
        with pytest.raises(ValueError, match="chunk_edges"):
            load_sharded_graph(store, key, chunk_edges=chunk_edges)
        assert store.stats("shards").hits == hits

    def test_memoizes_and_counts(self, tmp_path):
        session = Session(scale=0.3, seed=11, store=str(tmp_path))
        first = session.sharded_partition("roadnet-pa", "Greedy", 4)
        again = session.sharded_partition("roadnet-pa", "Greedy", 4)
        assert again is first
        stats = session.stats
        assert (stats.disk_shard_hits, stats.disk_shard_misses) == (0, 1)
        assert stats.shard_builds == 1

        warm = Session(scale=0.3, seed=11, store=str(tmp_path))
        warm.sharded_partition("roadnet-pa", "Greedy", 4)
        warm_stats = warm.stats
        assert (warm_stats.disk_shard_hits, warm_stats.disk_shard_misses) == (1, 0)
        assert warm_stats.shard_builds == 0

    def test_matches_in_memory_partition(self, tmp_path):
        session = Session(scale=0.3, seed=11, store=str(tmp_path))
        sharded = session.sharded_partition("roadnet-pa", "HDRF", 4)
        pgraph = PartitionedGraph.partition(session.graph("roadnet-pa"), "HDRF", 4)
        expected = pagerank(pgraph, num_iterations=4)
        actual = pagerank(sharded, num_iterations=4)
        assert actual.vertex_values == expected.vertex_values
        for mine, theirs in zip(
            actual.report.supersteps, expected.report.supersteps
        ):
            assert vars(mine) == vars(theirs)


class TestCacheStatsSurface:
    def test_shard_counters_in_as_dict(self):
        stats = CacheStats(0, 0, 0, 0, disk_shard_hits=2, disk_shard_misses=1)
        payload = stats.as_dict()
        assert payload["disk_shard_hits"] == 2
        assert payload["disk_shard_misses"] == 1

    def test_shard_counts_roll_into_disk_totals(self):
        stats = CacheStats(
            0,
            0,
            0,
            0,
            disk_partition_hits=1,
            disk_shard_hits=2,
            disk_record_misses=1,
            disk_shard_misses=3,
        )
        assert stats.disk_hits == 3
        assert stats.disk_misses == 4
        assert stats.shard_builds == 3
