"""The mmap chunk-walk scan strategy of the Pregel superstep driver.

:func:`repro.engine.pregel.pregel` owns the superstep loop (its module
docstring has the one-driver / three-scans split and the bit-identity
argument); for a :class:`~repro.ooc.mmap_graph.ShardedGraph` it drives the
scan built here, which holds only one bounded edge chunk in RAM at a time:
it walks the shard partitions in ascending id, streams each partition's
mmapped triplets in ``chunk_edges`` slices and folds the messages into a
per-partition dense accumulator.

That accumulator *is* the partition's outbox — element ``t`` is slot
``(partition, t)`` — so the fold orders the argument needs are kept.  The
one requirement is that the kernel's ``send_message_array`` is elementwise
(a subsequence of edges yields the subsequence of messages), which holds
for every shipped kernel — it is the same property the shm-pool scan
relies on.
"""

from __future__ import annotations

import numpy as np

from ..engine.messaging import ArrayMessageKernel, active_edge_mask
from .chunks import DEFAULT_CHUNK_EDGES

__all__ = ["stream_scan"]


def stream_scan(
    pgraph,
    master_of: np.ndarray,
    kernel: ArrayMessageKernel,
    executor_of: np.ndarray,
    active_direction: str,
    always_active: bool,
):
    """Build ``scan(active, state)`` over ``pgraph``'s memory-mapped shards.

    Same contract as :func:`repro.engine.messaging.triplet_scan`.
    """
    vertex_ids = pgraph.graph.vertex_ids
    num_vertices = int(vertex_ids.size)
    num_partitions = int(pgraph.num_partitions)
    chunk_edges = max(1, int(getattr(pgraph, "chunk_edges", DEFAULT_CHUNK_EDGES)))

    def scan(active, state):
        merged_dense = kernel.identity_array(num_vertices)
        received = np.zeros(num_vertices, dtype=bool)
        scanned_counts = np.zeros(num_partitions, dtype=np.int64)
        slot_counts = np.zeros(num_partitions, dtype=np.int64)
        shuffle_remote = 0
        shuffle_local = 0

        for partition in pgraph.partitions:
            if partition.num_edges == 0:
                continue
            pid = partition.partition_id
            mirror_to_global = np.searchsorted(vertex_ids, partition.vertex_ids)
            local_src, local_dst = partition.local_triplets()
            acc = kernel.identity_array(num_vertices)
            received_p = np.zeros(num_vertices, dtype=bool)

            for start in range(0, partition.num_edges, chunk_edges):
                stop = min(start + chunk_edges, partition.num_edges)
                src_idx = mirror_to_global[local_src[start:stop]]
                dst_idx = mirror_to_global[local_dst[start:stop]]
                if not always_active:
                    mask = active_edge_mask(
                        active, src_idx, dst_idx, active_direction
                    )
                    src_idx = src_idx[mask]
                    dst_idx = dst_idx[mask]
                count = int(src_idx.size)
                scanned_counts[pid] += count
                if count == 0:
                    continue
                _positions, target_idx, messages = kernel.send_message_array(
                    src_idx, dst_idx, state
                )
                if target_idx.size:
                    # Emission-order left fold: per slot this is the exact
                    # operation sequence of the in-process outbox pass.
                    kernel.merge_ufunc.at(acc, target_idx, messages)
                    received_p[target_idx] = True

            p_targets = np.flatnonzero(received_p)
            if p_targets.size:
                slot_counts[pid] = p_targets.size
                masters_p = master_of[p_targets]
                shipped = masters_p != pid
                if shipped.any():
                    remote = int(
                        (executor_of[pid] != executor_of[masters_p[shipped]]).sum()
                    )
                    shuffle_remote += remote
                    shuffle_local += int(shipped.sum()) - remote
                # Ascending-partition merge into the global accumulator:
                # pass 2 of the in-process fold (slots are partition-major).
                kernel.merge_ufunc.at(merged_dense, p_targets, acc[p_targets])
                received |= received_p
            partition.release()

        targets = np.flatnonzero(received)
        return (
            targets,
            merged_dense[targets],
            scanned_counts,
            slot_counts,
            shuffle_remote,
            shuffle_local,
        )

    return scan
