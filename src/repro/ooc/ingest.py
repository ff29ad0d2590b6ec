"""The out-of-core ingestion driver: chunk source -> shard -> mmapped graph.

One call ties the layers together: resolve the partition strategy, build
the content-addressed shard key, serve the shard from the store when it is
already there (a counted disk hit), otherwise stream the source through
:class:`~repro.ooc.shards.PartitionShardWriter` (a counted miss) and load
what was just written.  ``repro ingest`` and
:meth:`repro.session.session.Session.sharded_partition` are both thin
wrappers over :func:`ingest_source`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from ..errors import GraphIOError, require_count
from ..partitioning.base import PartitionStrategy
from ..partitioning.registry import canonical_partitioner_name, make_partitioner
from ..session.store import ArtifactStore
from .chunks import DEFAULT_CHUNK_EDGES, EdgeChunkSource
from .mmap_graph import ShardedGraph, load_sharded_graph
from .shards import write_shards

__all__ = ["IngestReport", "ingest_source"]


@dataclass(frozen=True)
class IngestReport:
    """What one :func:`ingest_source` call did."""

    dataset: str
    partitioner: str
    num_partitions: int
    num_edges: int
    num_vertices: int
    num_replicas: int
    reused: bool
    elapsed_seconds: float

    @property
    def replication_factor(self) -> float:
        """Mean vertex replicas per placed vertex (the paper's RF metric)."""
        placed = self.num_vertices
        return self.num_replicas / placed if placed else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "partitioner": self.partitioner,
            "num_partitions": self.num_partitions,
            "num_edges": self.num_edges,
            "num_vertices": self.num_vertices,
            "num_replicas": self.num_replicas,
            "replication_factor": self.replication_factor,
            "reused": self.reused,
            "elapsed_seconds": self.elapsed_seconds,
        }


def ingest_source(
    store: ArtifactStore,
    source: EdgeChunkSource,
    strategy: Union[str, PartitionStrategy],
    num_partitions: int,
    scale: float = 1.0,
    seed: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    force: bool = False,
) -> Tuple[ShardedGraph, IngestReport]:
    """Serve (or build) the shard for ``source`` and return its mmapped graph.

    ``scale``/``seed`` namespace the shard key exactly like placement keys,
    so a session's shards coexist with its placements in one store.
    ``force`` skips the disk lookup and rebuilds unconditionally (counted
    as a miss — the shard genuinely was not served from disk).
    """
    # Checked before any work: the shard is written before it is loaded.
    chunk_edges = require_count(chunk_edges, "chunk_edges", 1, ValueError)
    if isinstance(strategy, str):
        partitioner_label = canonical_partitioner_name(strategy)
        strategy = make_partitioner(partitioner_label)
    else:
        partitioner_label = strategy.name
    key = ArtifactStore.shard_key(
        source.name, partitioner_label, num_partitions, scale, seed
    )

    start = time.perf_counter()
    graph = None
    if force:
        store.count_shard(False)
    else:
        graph = load_sharded_graph(store, key, chunk_edges=chunk_edges)
    reused = graph is not None
    if graph is None:
        write_shards(store, key, strategy, num_partitions, source)
        # Not a cache lookup: the shard was written one line up, so a
        # failure here is store corruption, never a plain miss.
        graph = load_sharded_graph(store, key, chunk_edges=chunk_edges, count=False)
        if graph is None:
            raise GraphIOError(
                f"shard for {source.name!r} failed validation immediately after "
                f"ingest; the artifact store at {store.root} may be corrupt"
            )

    report = IngestReport(
        dataset=source.name,
        partitioner=partitioner_label,
        num_partitions=int(num_partitions),
        num_edges=graph.graph.num_edges,
        num_vertices=graph.graph.num_vertices,
        num_replicas=graph.membership.num_pairs,
        reused=reused,
        elapsed_seconds=time.perf_counter() - start,
    )
    return graph, report
