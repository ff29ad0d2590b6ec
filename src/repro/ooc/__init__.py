"""Out-of-core graph processing: chunked ingest, shard artifacts, mmap runs.

The pipeline, layer by layer:

1. :mod:`repro.ooc.chunks` — bounded ``(src, dst)`` chunk sources (SNAP
   edge-list files, synthetic generators, in-memory graphs);
2. :mod:`repro.ooc.shards` — stream a chunk source through a partition
   strategy's chunk assigner into a content-addressed shard artifact;
3. :mod:`repro.ooc.mmap_graph` — serve a shard as a partitioned graph
   whose edges are read-only ``np.memmap`` views;
4. :mod:`repro.ooc.pregel_stream` — the scan strategy that lets the
   engine's superstep driver walk the shards one partition chunk at a
   time, bit-identical to the in-process scan;
5. :mod:`repro.ooc.ingest` — the driver gluing 1-4 behind one call.

Results over shards are bit-identical to the in-memory path: same
placements, same vertex values, same ``SuperstepRecord`` counters.
"""

from .chunks import (
    DEFAULT_CHUNK_EDGES,
    EdgeChunkSource,
    EdgeListChunkSource,
    GraphChunkSource,
    SyntheticChunkSource,
    materialize,
)
from .ingest import IngestReport, ingest_source
from .mmap_graph import ShardEdgePartition, ShardedGraph, load_sharded_graph
from .shards import PartitionShardWriter, write_shards

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "EdgeChunkSource",
    "EdgeListChunkSource",
    "GraphChunkSource",
    "SyntheticChunkSource",
    "materialize",
    "IngestReport",
    "ingest_source",
    "ShardEdgePartition",
    "ShardedGraph",
    "load_sharded_graph",
    "PartitionShardWriter",
    "write_shards",
]
