"""Spill-to-store partition sharding: the out-of-core ingest engine.

:class:`PartitionShardWriter` consumes an
:class:`~repro.ooc.chunks.EdgeChunkSource` one bounded chunk at a time,
drives a partition strategy through its
:meth:`~repro.partitioning.base.PartitionStrategy.begin_stream` chunk
assigner (so Greedy/HDRF/Fennel place edges with the exact scoring state
a whole-graph ``assign`` would have), appends each partition's edges to a
per-partition spill file, and finalises everything as one content-
addressed **shard** artifact in the
:class:`~repro.session.store.ArtifactStore`:

* ``<digest>.json`` — the manifest (written last: the commit point);
* ``<digest>.vtx.npz`` — the vertex table, an uncompressed ``np.savez``:
  sorted vertex ids, degrees and the membership pair arrays, each in the
  narrowest integer dtype that holds it (partition ids in 8 bits up to
  k = 256).  O(vertices + replicas): this is the part of the graph that
  stays in RAM at run time, widened to int64 on load;
* ``<digest>.pNNNNN.npy`` — one raw ``(2, edges)`` array of
  partition-local triplet indices per non-empty partition, in the
  smallest integer dtype that holds the partition's mirror count (so
  8 to 32 bits), saved as plain ``.npy`` (not ``.npz``) so the engine
  can memory-map it.

Peak writer memory is O(chunk + vertices + replicas): the placement loop
touches one chunk at a time and nothing else, and finalisation re-reads
the spill files in bounded blocks — first to derive each partition's
mirror vertex set (each block de-duplicated before it is merged into the
set, and from those sets the membership pairs and degree tables), then to
translate global ids to partition-local indices while streaming each
``.npy`` straight to disk through
:meth:`~repro.session.store.ArtifactStore.open_shard_member`.  No stage
ever materialises a whole partition, let alone the whole edge set.

The translation looks ids up in two tables indexed by raw id (a
vertex's position in the vertex table, and its slot in the partition
being written) when the raw ids are **dense**: the smallest is
non-negative and the largest is below :data:`DENSE_ID_FACTOR` times the
vertex count.  Each table then holds at most ``DENSE_ID_FACTOR`` entries
per vertex, in the narrowest integer dtype that indexes the vertices.
Sparse or negative ids (SNAP dumps with hashed or global ids) fall back
to a binary search of the sorted mirror set, which needs no table.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, IO, Iterator

import numpy as np

from ..core.io import narrow_int_dtype
from ..errors import PartitioningError
from ..partitioning.base import PartitionStrategy
from ..partitioning.membership import VertexMembership, sorted_unique
from ..session.store import STORE_FORMAT_VERSION, ArtifactStore
from .chunks import EdgeChunkSource

__all__ = [
    "DENSE_ID_FACTOR",
    "FINALIZE_BLOCK_EDGES",
    "PartitionShardWriter",
    "partition_member_name",
    "write_shards",
]

#: Edges per block when finalisation streams a spill file back in; each
#: block is ``16 * FINALIZE_BLOCK_EDGES`` bytes of resident memory.
FINALIZE_BLOCK_EDGES = 262_144

#: Raw ids are dense, and looked up by table, when the largest is below
#: this many times the vertex count.  At 4 a table stays within a small
#: multiple of the vertex table the engine keeps in RAM anyway, while ids
#: numbered from 0 with some gaps (a subsampled or filtered graph) still
#: take the table; sparser ids would make it larger than the graph.
DENSE_ID_FACTOR = 4


def partition_member_name(partition_id: int) -> str:
    """Sidecar member name of one partition's edge file."""
    return f"p{partition_id:05d}.npy"


def _iter_spill_blocks(spill_path: str, count: int) -> Iterator[np.ndarray]:
    """Yield one spill file as bounded ``(block, 2)`` int64 arrays, in
    the exact order the edges were spilled."""
    block_bytes = FINALIZE_BLOCK_EDGES * 16
    with open(spill_path, "rb") as handle:
        remaining = count
        while remaining > 0:
            data = handle.read(min(block_bytes, remaining * 16))
            if not data:
                break
            block = np.frombuffer(data, dtype=np.int64).reshape(-1, 2)
            remaining -= block.shape[0]
            yield block


class _IdIndex:
    """Raw vertex id -> position in the vertex ids, and slot in the
    mirror set of the partition being translated.

    Dense ids are read from tables indexed by raw id; other ids are
    binary-searched.  Callers take one path through :meth:`select` and
    :meth:`local` either way.
    """

    def __init__(self, vertex_ids: np.ndarray) -> None:
        self.vertex_ids = vertex_ids
        self.mirror = vertex_ids
        self.dense = (
            vertex_ids.size > 0
            and int(vertex_ids[0]) >= 0
            and int(vertex_ids[-1]) + 1 <= DENSE_ID_FACTOR * vertex_ids.size
        )
        if self.dense:
            length = int(vertex_ids[-1]) + 1
            dtype = narrow_int_dtype(0, vertex_ids.size - 1)
            self.position = np.empty(length, dtype=dtype)
            self.position[vertex_ids] = np.arange(vertex_ids.size, dtype=dtype)
            # Never reset: a partition's endpoints all lie in its mirror
            # set, so only slots written by the latest select() are read.
            self.slot = np.empty(length, dtype=dtype)

    def select(self, mirror: np.ndarray) -> np.ndarray:
        """Translate into ``mirror`` (a sorted subset of the vertex ids)
        from now on; returns each mirror id's position in the vertex ids."""
        self.mirror = mirror
        if not self.dense:
            return np.searchsorted(self.vertex_ids, mirror)
        self.slot[mirror] = np.arange(mirror.size, dtype=self.slot.dtype)
        return self.position[mirror]

    def local(self, ids: np.ndarray) -> np.ndarray:
        """The selected mirror slots of ``ids``, each of which is in it."""
        if not self.dense:
            return np.searchsorted(self.mirror, ids)
        return self.slot[ids]


class PartitionShardWriter:
    """Stream a chunk source through a partitioner into a shard artifact."""

    def __init__(
        self,
        store: ArtifactStore,
        key: Dict[str, object],
        strategy: PartitionStrategy,
        num_partitions: int,
    ) -> None:
        self.store = store
        self.key = key
        self.strategy = strategy
        self.num_partitions = int(num_partitions)

    # ------------------------------------------------------------------
    def ingest(self, source: EdgeChunkSource) -> Dict[str, object]:
        """Partition ``source`` chunk by chunk and publish the shard.

        Returns the manifest that was written.  The spill directory lives
        next to the shard files and is removed on every exit path; the
        manifest is written only after every sidecar has been published, so
        an interrupted ingest can never leave a loadable-but-wrong shard.

        The chunk loop does nothing but place, spill and count — all
        per-vertex bookkeeping (membership, degrees) is derived from the
        spill files afterwards, so no O(vertices) table is rebuilt per
        chunk.
        """
        num_edges = source.num_edges
        assigner = self.strategy.begin_stream(self.num_partitions, num_edges)

        shards_dir = os.path.join(self.store.root, "shards")
        os.makedirs(shards_dir, exist_ok=True)
        spill_dir = os.path.join(
            shards_dir, f".ingest-{os.getpid()}-{os.urandom(6).hex()}"
        )
        os.makedirs(spill_dir)
        spill_handles: Dict[int, IO[bytes]] = {}

        edge_counts = np.zeros(self.num_partitions, dtype=np.int64)
        total_edges = 0

        try:
            for src, dst in source.chunks():
                src = np.asarray(src, dtype=np.int64)
                dst = np.asarray(dst, dtype=np.int64)
                if src.shape != dst.shape or src.ndim != 1:
                    raise PartitioningError(
                        "chunk source must yield matching 1-D (src, dst) arrays"
                    )
                if src.size == 0:
                    continue
                placement = np.asarray(
                    assigner.assign_chunk(src, dst), dtype=np.int64
                )
                if placement.shape != src.shape:
                    raise PartitioningError(
                        f"{self.strategy.name}: assign_chunk returned "
                        f"{placement.shape[0] if placement.ndim else 'scalar'} "
                        f"placements for {src.size} edges"
                    )
                if placement.size and (
                    int(placement.min()) < 0
                    or int(placement.max()) >= self.num_partitions
                ):
                    raise PartitioningError(
                        f"{self.strategy.name}: assign_chunk produced partition ids "
                        f"outside [0, {self.num_partitions})"
                    )
                total_edges += int(src.size)

                self._spill_chunk(spill_dir, spill_handles, src, dst, placement)
                edge_counts += np.bincount(placement, minlength=self.num_partitions)

            assigner.finish()
            for handle in spill_handles.values():
                handle.close()
            spill_handles.clear()

            return self._finalize(source, spill_dir, edge_counts, total_edges)
        finally:
            for handle in spill_handles.values():
                try:
                    handle.close()
                except OSError:
                    pass
            shutil.rmtree(spill_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    def _spill_chunk(
        self,
        spill_dir: str,
        spill_handles: Dict[int, IO[bytes]],
        src: np.ndarray,
        dst: np.ndarray,
        placement: np.ndarray,
    ) -> None:
        """Append this chunk's edges to their partitions' spill files.

        The stable sort preserves stream order within each partition, so a
        finalised partition holds its edges in exactly the order an
        in-memory placement's compiled edge order has.  It sorts the ids
        in their narrowest dtype, which numpy radix-sorts.
        """
        narrow = placement.astype(narrow_int_dtype(0, self.num_partitions - 1))
        order = np.argsort(narrow, kind="stable")
        sorted_pids = placement[order]
        bounds = np.searchsorted(sorted_pids, np.arange(self.num_partitions + 1))
        interleaved = np.empty((src.size, 2), dtype=np.int64)
        interleaved[:, 0] = src[order]
        interleaved[:, 1] = dst[order]
        for pid in np.flatnonzero(np.diff(bounds)).tolist():
            handle = spill_handles.get(pid)
            if handle is None:
                handle = open(os.path.join(spill_dir, f"part-{pid:05d}.bin"), "ab")
                spill_handles[pid] = handle
            handle.write(interleaved[bounds[pid]:bounds[pid + 1]])

    def _mirror_sets(
        self, spill_dir: str, edge_counts: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Pass 1: each non-empty partition's sorted unique endpoint set,
        gathered block by block from its spill file."""
        mirrors: Dict[int, np.ndarray] = {}
        for pid in range(self.num_partitions):
            count = int(edge_counts[pid])
            if count == 0:
                continue
            spill_path = os.path.join(spill_dir, f"part-{pid:05d}.bin")
            on_disk = os.path.getsize(spill_path) // 16
            if on_disk != count:
                raise PartitioningError(
                    f"spill file for partition {pid} holds {on_disk} edges, "
                    f"expected {count}"
                )
            mirror = np.empty(0, dtype=np.int64)
            for block in _iter_spill_blocks(spill_path, count):
                mirror = sorted_unique(np.concatenate([mirror, sorted_unique(block)]))
            mirrors[pid] = mirror
        return mirrors

    def _finalize(
        self,
        source: EdgeChunkSource,
        spill_dir: str,
        edge_counts: np.ndarray,
        total_edges: int,
    ) -> Dict[str, object]:
        mirrors = self._mirror_sets(spill_dir, edge_counts)

        # The mirror sets are the placement's replica slots (in raw ids).
        slots = [mirrors.get(p, np.empty(0, np.int64)) for p in range(self.num_partitions)]
        membership = VertexMembership.from_slots(
            np.concatenate(slots), np.cumsum([0] + [s.size for s in slots]), self.num_partitions
        )

        # The graph's vertex set: every placed endpoint, plus any isolated
        # vertices the source knows about (GraphChunkSource round trips).
        vertex_ids = membership.vertices
        source_vertices = source.vertex_ids
        if source_vertices is not None:
            vertex_ids = sorted_unique(
                np.concatenate(
                    [vertex_ids, np.asarray(source_vertices, dtype=np.int64)]
                )
            )
        out_degree = np.zeros(vertex_ids.size, dtype=np.int64)
        in_degree = np.zeros(vertex_ids.size, dtype=np.int64)

        # Clear any previous shard under this key before publishing new
        # sidecars, so stale partition files from a differently-shaped
        # predecessor can never be referenced again.
        self.store.discard_shard(self.key)

        # Pass 2: translate each partition's spill to local indices and
        # stream the (2, count) ``.npy`` straight to its published path —
        # row 0 (src) then row 1 (dst), one bounded block at a time, in
        # the narrowest dtype that indexes the partition's mirrors.
        # Degrees fall out of the same translated blocks for free.
        index = _IdIndex(vertex_ids)
        partition_members: Dict[str, str] = {}
        for pid in range(self.num_partitions):
            count = int(edge_counts[pid])
            if count == 0:
                continue
            spill_path = os.path.join(spill_dir, f"part-{pid:05d}.bin")
            mirror = mirrors[pid]
            where = index.select(mirror)
            member = partition_member_name(pid)
            local_degrees = [
                np.zeros(mirror.size, dtype=np.int64),
                np.zeros(mirror.size, dtype=np.int64),
            ]
            slot_dtype = narrow_int_dtype(0, mirror.size - 1)
            with self.store.open_shard_member(self.key, member) as handle:
                np.lib.format.write_array_header_1_0(
                    handle,
                    {
                        "descr": np.lib.format.dtype_to_descr(slot_dtype),
                        "fortran_order": False,
                        "shape": (2, count),
                    },
                )
                for column in (0, 1):
                    for block in _iter_spill_blocks(spill_path, count):
                        local = index.local(block[:, column])
                        local_degrees[column] += np.bincount(
                            local, minlength=mirror.size
                        )
                        handle.write(local.astype(slot_dtype, copy=False))
            out_degree[where] += local_degrees[0]
            in_degree[where] += local_degrees[1]
            partition_members[str(pid)] = member
            os.remove(spill_path)

        vertex_columns = {
            "vertex_ids": vertex_ids,
            "out_degree": out_degree,
            "in_degree": in_degree,
            "pair_vertex": membership.pair_vertex,
        }
        with self.store.open_shard_member(self.key, "vtx.npz") as handle:
            np.savez(
                handle,
                **{
                    name: column.astype(
                        narrow_int_dtype(column.min(initial=0), column.max(initial=0))
                    )
                    for name, column in vertex_columns.items()
                },
                # By k, not by value: the partition id width follows the shape.
                pair_partition=membership.pair_partition.astype(
                    narrow_int_dtype(0, self.num_partitions - 1)
                ),
            )

        manifest: Dict[str, object] = {
            "format_version": STORE_FORMAT_VERSION,
            "dataset": source.name,
            "strategy_name": self.strategy.name,
            "num_partitions": self.num_partitions,
            "num_edges": int(total_edges),
            "num_vertices": int(vertex_ids.size),
            "edge_counts": [int(c) for c in edge_counts.tolist()],
            "members": {
                "vertex_table": "vtx.npz",
                "partitions": partition_members,
            },
        }
        self.store.save_shard_manifest(self.key, manifest)
        return manifest


def write_shards(
    store: ArtifactStore,
    key: Dict[str, object],
    strategy: PartitionStrategy,
    num_partitions: int,
    source: EdgeChunkSource,
) -> Dict[str, object]:
    """Convenience wrapper: ingest ``source`` into a shard under ``key``."""
    writer = PartitionShardWriter(store, key, strategy, num_partitions)
    return writer.ingest(source)
