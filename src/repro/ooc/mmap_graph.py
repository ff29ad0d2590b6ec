"""Memory-mapped partitioned graphs served from shard artifacts.

:class:`ShardedGraph` is the out-of-core counterpart of
:class:`~repro.engine.partitioned_graph.PartitionedGraph`: the same facade
(``graph`` vertex table, ``routing``, ``triplets()``, ``dataset_bytes``)
built from a shard artifact instead of in-memory edge arrays, plus the
shard's ``partitions``.  Only the vertex-scale state lives in RAM —
vertex ids, degrees and the replication membership, exactly the state
GraphX keeps in its vertex RDD — while every partition's edges stay on
disk and are served as read-only ``np.memmap`` views, so the Pregel
engine touches at most one partition's pages at a time.

While :attr:`ShardedGraph.stream_supersteps` is set, the Pregel engine
scans the shards partition at a time (:mod:`repro.ooc.pregel_stream`);
cleared, it runs on :meth:`ShardedGraph.triplets`, the shards' edges
compiled exactly as an in-memory placement's are.
"""

from __future__ import annotations

import mmap
import os
import zipfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.properties import estimated_size_bytes
from ..engine.messaging import TripletArrays
from ..engine.routing import RoutingTable
from ..errors import require_count
from ..partitioning.membership import VertexMembership, compile_placement
from ..session.store import ArtifactStore
from .chunks import DEFAULT_CHUNK_EDGES
from .pregel_stream import stream_scan
from .shards import partition_member_name

__all__ = ["ShardEdgePartition", "ShardedGraph", "load_sharded_graph"]


class _ShardVertexTable:
    """The vertex-scale view of a sharded graph (the ``.graph`` facade).

    Quacks like :class:`~repro.core.graph.Graph` for everything the
    algorithms and the engine read from ``pgraph.graph`` — vertex ids,
    counts and out-degrees — without ever materialising an edge array.
    """

    def __init__(
        self, name: str, vertex_ids: np.ndarray, out_degree: np.ndarray, num_edges: int
    ) -> None:
        self.name = name
        self._vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        self._out_degree = np.asarray(out_degree, dtype=np.int64)
        self._num_edges = int(num_edges)

    @property
    def vertex_ids(self) -> np.ndarray:
        """Sorted array of all vertex ids."""
        return self._vertex_ids

    @property
    def num_vertices(self) -> int:
        return int(self._vertex_ids.size)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def out_degree_array(self) -> np.ndarray:
        """Out-degree of every vertex in ``vertex_ids`` order (int64)."""
        return self._out_degree

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_ShardVertexTable(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )


class ShardEdgePartition:
    """One partition's edges, memory-mapped from its shard sidecar.

    ``local_triplets()`` returns the on-disk ``(2, edges)`` array as a
    read-only ``np.memmap`` at the ``dtype`` and data ``offset`` the
    loader read from the ``.npy`` header once — the pages are faulted in
    as the engine scans them and dropped again by :meth:`release`, so
    resident memory never exceeds the pages of the partition currently
    being processed.  (The map is not kept across releases: each open map
    holds a file descriptor.)
    """

    def __init__(
        self,
        partition_id: int,
        path: Optional[str],
        num_edges: int,
        vertex_ids: np.ndarray,
        dtype: np.dtype,
        offset: int,
    ) -> None:
        self.partition_id = int(partition_id)
        self.path = path
        self._num_edges = int(num_edges)
        self.vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        self.dtype = np.dtype(dtype)
        self.offset = int(offset)
        self._mapped: Optional[np.ndarray] = None

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_ids.size)

    def local_triplets(self) -> np.ndarray:
        """The partition's ``(2, edges)`` sources and destinations as indices
        into its ``vertex_ids`` mirror list (so, its replica slots).

        Served from the memory-mapped sidecar in its stored integer dtype:
        read-only, stable across calls until :meth:`release`.
        """
        if self._num_edges == 0 or self.path is None:
            return np.empty((2, 0), dtype=np.int64)
        if self._mapped is None:
            self._mapped = np.memmap(
                self.path, dtype=self.dtype, mode="r",
                offset=self.offset, shape=(2, self._num_edges),
            )
        return self._mapped

    def release(self) -> None:
        """Drop the mapping (and ask the kernel to evict its pages)."""
        mapped = self._mapped
        self._mapped = None
        if mapped is None:
            return
        base = getattr(mapped, "_mmap", None)
        if base is not None:
            try:
                base.madvise(mmap.MADV_DONTNEED)
            except (AttributeError, OSError, ValueError):  # pragma: no cover
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardEdgePartition(id={self.partition_id}, edges={self.num_edges}, "
            f"vertices={self.num_vertices})"
        )


class ShardedGraph:
    """A partitioned graph whose edges live in a shard artifact.

    Drop-in for :class:`~repro.engine.partitioned_graph.PartitionedGraph`
    wherever the engine and the algorithms are concerned.  The
    :attr:`stream_supersteps` flag makes :func:`repro.engine.pregel.pregel`
    drive :meth:`stream_scan`; flipping it to ``False`` on an instance
    selects the ordinary in-process scan over :meth:`triplets` (the
    equivalence tests exercise both).
    """

    #: Checked by ``pregel`` to select the mmap chunk-walk scan strategy.
    stream_supersteps = True

    def __init__(
        self,
        vertex_table: _ShardVertexTable,
        partitions: List[ShardEdgePartition],
        membership: VertexMembership,
        strategy_name: str,
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
    ) -> None:
        self.graph = vertex_table
        self.partitions = partitions
        self.membership = membership
        self.num_partitions = int(membership.num_partitions)
        self.strategy_name = strategy_name
        self.chunk_edges = require_count(chunk_edges, "chunk_edges", 1, ValueError)
        self._routing: Optional[RoutingTable] = None
        self._mirror_maps: Optional[List[np.ndarray]] = None
        self._triplets: Optional[TripletArrays] = None

    @property
    def routing(self) -> RoutingTable:
        """The vertex routing table, rebuilt from the persisted membership."""
        if self._routing is None:
            self._routing = RoutingTable(
                num_partitions=self.num_partitions,
                membership=self.membership,
                all_vertex_ids=self.graph.vertex_ids,
            )
        return self._routing

    def mirror_maps(self) -> List[np.ndarray]:
        """Every partition's replica slot -> dense vertex index map: one
        ``searchsorted`` over the R membership pairs, in the narrowest
        integer dtype, cached."""
        if self._mirror_maps is None:
            ids = self.graph.vertex_ids
            mirrors, bounds = self.membership.partition_major()
            dense = np.searchsorted(ids, mirrors).astype(np.min_scalar_type(max(ids.size - 1, 0)))
            self._mirror_maps = np.split(dense, bounds[1:-1])
        return self._mirror_maps

    def triplets(self) -> TripletArrays:
        """Dense triplet arrays — materialises every partition in RAM.

        Only meaningful with :attr:`stream_supersteps` disabled (the
        equivalence tests' in-memory reference); the streaming scan never
        calls it.
        """
        if self._triplets is None:
            edges = [p.vertex_ids[np.asarray(p.local_triplets())] for p in self.partitions]
            self.release()
            src, dst = np.concatenate(edges, axis=1)
            counts = [p.num_edges for p in self.partitions]
            partition_of = np.repeat(np.arange(self.num_partitions), counts)
            ids, k = self.graph.vertex_ids, self.num_partitions
            self._triplets = TripletArrays.from_placement(
                ids, compile_placement(ids, src, dst, partition_of, k)
            )
        return self._triplets

    #: The scan strategy ``pregel`` drives while :attr:`stream_supersteps` is set.
    stream_scan = stream_scan

    @property
    def dataset_bytes(self) -> int:
        """Estimated on-disk size of the underlying edge list."""
        return estimated_size_bytes(self.graph)

    def release(self) -> None:
        """Release every partition's mapping."""
        for partition in self.partitions:
            partition.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedGraph(strategy={self.strategy_name!r}, "
            f"partitions={self.num_partitions}, edges={self.graph.num_edges})"
        )


def _partition_layout(path: str, expected_edges: int) -> Optional[Tuple[np.dtype, int]]:
    """Header-check one partition sidecar: its ``(dtype, data offset)``, or
    ``None`` when it is missing, truncated or not a C-ordered
    ``(2, expected_edges)`` integer array (any integer width) in the
    version 1.0 ``.npy`` format the writer emits."""
    try:
        with open(path, "rb") as handle:
            if np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            offset = handle.tell()
            size = os.fstat(handle.fileno()).st_size
    except (OSError, ValueError):
        return None
    ok = (
        dtype.kind in "iu"
        and not fortran_order
        and shape == (2, expected_edges)
        and size == offset + 2 * expected_edges * dtype.itemsize
    )
    return (dtype, offset) if ok else None


def load_sharded_graph(
    store: ArtifactStore,
    key: Dict[str, object],
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    count: bool = True,
) -> Optional[ShardedGraph]:
    """Load the shard stored under ``key``; ``None`` (a counted miss) if absent.

    The loader owns the hit/miss verdict: a shard only counts as a hit when
    the manifest, the vertex table and **every** partition sidecar it
    references are present and structurally sound (dtype, shape and edge
    counts all match the manifest, and every partition id is below its
    partition count).  Anything less — a truncated ``.npy``,
    a vertex table that does not unzip, a missing sidecar — is a miss,
    so callers rebuild instead of serving a corrupt graph.  ``count=False``
    skips the store's hit/miss accounting (the ingest driver's
    load-after-build verification is not a cache lookup).
    """

    def verdict(hit: bool) -> None:
        if count:
            store.count_shard(hit)

    manifest = store.load_shard_manifest(key)
    if manifest is None:
        verdict(False)
        return None
    try:
        num_partitions = int(manifest["num_partitions"])
        num_edges = int(manifest["num_edges"])
        edge_counts = [int(c) for c in manifest["edge_counts"]]
        partition_members = dict(manifest["members"]["partitions"])
        vertex_member = str(manifest["members"]["vertex_table"])
        dataset = str(manifest.get("dataset", ""))
        strategy_name = str(manifest.get("strategy_name", ""))
    except (KeyError, TypeError, ValueError):
        verdict(False)
        return None
    if len(edge_counts) != num_partitions or sum(edge_counts) != num_edges:
        verdict(False)
        return None

    try:
        with np.load(store.shard_member_path(key, vertex_member)) as payload:
            vertex_ids = payload["vertex_ids"].astype(np.int64, copy=False)
            out_degree = payload["out_degree"].astype(np.int64, copy=False)
            in_degree = payload["in_degree"].astype(np.int64, copy=False)
            pair_vertex = payload["pair_vertex"].astype(np.int64, copy=False)
            pair_partition = payload["pair_partition"].astype(np.int64, copy=False)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile, EOFError):
        verdict(False)
        return None
    if (
        out_degree.size != vertex_ids.size
        or in_degree.size != vertex_ids.size
        or pair_vertex.size != pair_partition.size
        or int(pair_partition.min(initial=0)) < 0
        or int(pair_partition.max(initial=0)) >= num_partitions
    ):
        verdict(False)
        return None

    membership = VertexMembership(pair_vertex, pair_partition, num_partitions)
    partitions: List[ShardEdgePartition] = []
    for pid in range(num_partitions):
        expected = edge_counts[pid]
        path: Optional[str] = None
        dtype, offset = np.dtype(np.int64), 0
        if expected > 0:
            if partition_members.get(str(pid)) != partition_member_name(pid):
                verdict(False)
                return None
            path = store.shard_member_path(key, partition_member_name(pid))
            layout = _partition_layout(path, expected)
            if layout is None:
                verdict(False)
                return None
            dtype, offset = layout
        partitions.append(
            ShardEdgePartition(
                partition_id=pid,
                path=path,
                num_edges=expected,
                vertex_ids=membership.vertices_of_partition(pid),
                dtype=dtype,
                offset=offset,
            )
        )

    vertex_table = _ShardVertexTable(
        name=dataset,
        vertex_ids=vertex_ids,
        out_degree=out_degree,
        num_edges=num_edges,
    )
    graph = ShardedGraph(
        vertex_table=vertex_table,
        partitions=partitions,
        membership=membership,
        strategy_name=strategy_name,
        chunk_edges=chunk_edges,
    )
    verdict(True)
    return graph
