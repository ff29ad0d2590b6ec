"""The mmap chunk-walk scan strategy of the Pregel superstep driver.

:func:`repro.engine.pregel.pregel` owns the superstep loop (its module
docstring has the one-driver / three-scans split and the bit-identity
argument); for a :class:`~repro.ooc.mmap_graph.ShardedGraph` it drives the
scan built here, which walks the shard partitions in ascending id and
streams each one's mmapped triplets in ``chunk_edges`` slices.  A shard
stores endpoints as the partition's replica slots, so pass 1 folds each
message into its slot in emission order and pass 2 merges the touched
slots, ascending, into the superstep's accumulator: the in-process fold
orders, given an elementwise ``send_message_array`` (a subsequence of
edges yields the subsequence of messages; every shipped kernel is one).
Memory beyond one chunk: the graph's R mirror-map entries, one pass-1
scratch per run sized to the largest partition's mirror count, and one
V-sized accumulator per superstep.
"""

from __future__ import annotations

import numpy as np

from ..engine.messaging import ArrayMessageKernel, active_edge_mask, message_slots
from ..errors import require_count

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
    num_vertices = int(pgraph.graph.num_vertices)
    num_partitions = int(pgraph.num_partitions)
    chunk_edges = require_count(pgraph.chunk_edges, "chunk_edges", 1, ValueError)
    mirror_maps = pgraph.mirror_maps()
    # This run's pass-1 scratch, reset after each partition (runs on one
    # graph may overlap in threads, so it is not shared).
    width = max((m.size for m in mirror_maps), default=0)
    outbox = kernel.identity_array(width)
    touched = np.zeros(width, dtype=bool)

    def scan(active, state):
        merged = kernel.identity_array(num_vertices)
        received = np.zeros(num_vertices, dtype=bool)
        scanned_counts = np.zeros(num_partitions, dtype=np.int64)
        slot_counts = np.zeros(num_partitions, dtype=np.int64)
        shuffle_remote = shuffle_local = 0

        for partition, mirror_map in zip(pgraph.partitions, mirror_maps):
            num_edges, pid = partition.num_edges, partition.partition_id
            slot_vertex = mirror_map.astype(np.intp)
            local = partition.local_triplets()
            for start in range(0, num_edges, chunk_edges):
                src_idx = slot_vertex[local[0, start:start + chunk_edges]]
                dst_idx = slot_vertex[local[1, start:start + chunk_edges]]
                if not always_active:
                    picked = np.flatnonzero(
                        active_edge_mask(active, src_idx, dst_idx, active_direction)
                    )
                    src_idx, dst_idx = src_idx[picked], dst_idx[picked]
                scanned_counts[pid] += src_idx.size
                positions, target_idx, messages = kernel.send_message_array(
                    src_idx, dst_idx, state
                )
                edges = positions if always_active else picked[positions]
                slot = message_slots(
                    kernel, local.reshape(-1), (1, num_edges), edges + start,
                    dst_idx[positions], target_idx, slot_vertex,
                )
                kernel.merge_ufunc.at(outbox, slot, messages)
                touched[slot] = True
            partition.release()

            slots = np.flatnonzero(touched[:slot_vertex.size])
            slot_counts[pid] = slots.size
            targets = slot_vertex[slots]
            masters = master_of[targets]
            shipped = masters != pid
            remote = int(np.count_nonzero(executor_of[masters[shipped]] != executor_of[pid]))
            shuffle_remote += remote
            shuffle_local += int(np.count_nonzero(shipped)) - remote
            # Ascending slots are ascending targets; partitions merge in id order.
            kernel.merge_ufunc.at(merged, targets, outbox[slots])
            received[targets] = True
            outbox[slots] = kernel.merge_identity
            touched[slots] = False

        targets = np.flatnonzero(received)
        return targets, merged[targets], scanned_counts, slot_counts, shuffle_remote, shuffle_local

    return scan
