"""Array-native message plane for the Pregel engine.

The scalar Pregel loop scans every edge triplet with a Python loop and
merges messages through per-target dict folds.  That loop is the last big
scalar hot path of the simulator: it dominates every ``run_algorithm_study``
sweep because it runs once per superstep per edge.

This module provides the vectorised replacement.  An algorithm may hand
the engine an :class:`ArrayMessageKernel` describing its messages as flat
numpy arrays; the engine then computes active-edge masks, per-target
message aggregation, master routing and remote/local message counts
entirely with array operations over the partition triplet arrays cached
on :class:`~repro.engine.edge_partition.EdgePartition`.

Bit-identical folds
-------------------
The scalar engine folds messages strictly left-to-right: first within a
partition's outbox in edge-scan order, then across partitions in
partition-id order.  To reproduce its results *bit for bit* (floating
point included) the aggregation here uses ``ufunc.at`` — an unbuffered,
in-order left fold — rather than ``ufunc.reduceat``/``bincount``, whose
pairwise summation reassociates long segments.  The fold starts from the
kernel's ``merge_identity`` (``0.0`` for ``np.add``, ``+inf``/``INT64_MAX``
for ``np.minimum``), which is exact for the shipped merge operators.

The per-partition compute counters are computed as ``count * unit``
products instead of the scalar path's repeated additions; the two agree
bit-for-bit whenever the unit costs are dyadic rationals (0.25, 0.5, 1.0,
…), which holds for every unit cost in this code base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import EngineError
from ..partitioning.membership import master_partition_array

__all__ = [
    "ArrayMessageKernel",
    "TripletArrays",
    "build_triplets",
    "active_edge_mask",
    "FoldPlan",
    "plan_fold",
    "fold_messages",
    "route_counts",
    "triplet_scan",
]


class ArrayMessageKernel:
    """Vectorised message kernel an algorithm hands to :func:`pregel`.

    A kernel replaces the scalar ``vertex_program`` / ``send_message`` /
    ``merge_message`` callables with array equivalents over a dense vertex
    index (position in the graph's sorted ``vertex_ids`` array).  The
    contract is strict observational equivalence with the scalar triple:
    identical vertex values (bit for bit) and identical message sets.

    Subclasses set the class attributes below and implement the methods
    that their execution mode needs (:meth:`apply_messages_all` only for
    ``always_active`` algorithms, :meth:`decode_messages` only for
    ``aggregate_messages`` users).
    """

    #: ufunc combining two messages for the same target; must be the exact
    #: array counterpart of the scalar ``merge_message`` (np.add, np.minimum).
    merge_ufunc: Optional[np.ufunc] = None
    #: Identity element of ``merge_ufunc`` used to seed the left fold.
    merge_identity: Any = None
    #: dtype of one message (float64 ranks, int64 labels, ...).
    message_dtype = np.float64
    #: Row width for matrix-valued messages (``None`` = scalar messages).
    message_width: Optional[int] = None
    #: ``True`` when the *structure* of the messages (which edges emit, to
    #: which targets) is the same every superstep even though the payloads
    #: change — e.g. PageRank, which always sends along every out-edge.
    #: Lets the engine compute the fold plan and routing counters once.
    static_message_structure = False

    # -- state codec ----------------------------------------------------
    def encode(self, vertex_ids: np.ndarray, values: Dict[int, Any]):
        """Encode the scalar per-vertex values into dense array state."""
        raise NotImplementedError

    def decode(self, vertex_ids: np.ndarray, state) -> Dict[int, Any]:
        """Decode array state back into the scalar ``vertex_values`` dict.

        Payloads must be bit-identical to what the scalar path produces.
        """
        raise NotImplementedError

    # -- superstep hooks ------------------------------------------------
    def initial_program(self, state):
        """Superstep 0: the vertex program applied with the initial message.

        Every shipped algorithm leaves its values untouched in superstep 0,
        so the default is the identity.
        """
        return state

    def send_message_array(
        self, src_idx: np.ndarray, dst_idx: np.ndarray, state
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Messages for the scanned triplets ``(src_idx[i], dst_idx[i])``.

        Returns ``(edge_positions, target_idx, messages)`` where
        ``edge_positions`` indexes the scanned-edge arrays (so the engine
        can attribute each message to its partition), ``target_idx`` is the
        dense index of each recipient and ``messages`` the payload array.
        When ``merge_ufunc`` is inexact (float add) the messages must be
        emitted in scanned-edge order so the engine's left fold reproduces
        the scalar outbox fold exactly.
        """
        raise NotImplementedError

    def apply_messages(self, state, target_idx: np.ndarray, messages):
        """Vertex program for the data-driven loop: update only receivers."""
        raise NotImplementedError

    def apply_messages_all(self, state, target_idx: np.ndarray, messages):
        """Vertex program for ``always_active`` algorithms.

        Runs on *every* vertex; non-receivers see the algorithm's default
        message (the kernel owns that substitution).
        """
        raise NotImplementedError

    # -- aggregate_messages ---------------------------------------------
    def decode_messages(self, target_ids: np.ndarray, messages) -> Dict[int, Any]:
        """Decode merged messages for :func:`aggregate_messages` users."""
        raise NotImplementedError

    # -- helpers --------------------------------------------------------
    def identity_array(self, count: int) -> np.ndarray:
        """A fresh fold accumulator of ``count`` identity messages."""
        shape = (count,) if self.message_width is None else (count, self.message_width)
        return np.full(shape, self.merge_identity, dtype=self.message_dtype)


@dataclass
class TripletArrays:
    """The whole partitioned graph as flat, partition-major triplet arrays.

    ``src``/``dst`` are dense vertex indices (positions in ``vertex_ids``);
    ``edge_pid`` is the owning edge partition of every triplet.  ``master_of``
    maps every dense vertex index to its master partition.
    """

    vertex_ids: np.ndarray
    edge_pid: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    master_of: np.ndarray
    num_partitions: int

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_ids.size)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)


def build_triplets(pgraph) -> TripletArrays:
    """Materialise the partition-major triplet arrays of a partitioned graph.

    Composes each partition's cached local triplets (indices into the
    partition's mirror list) with one ``searchsorted`` of the mirror list
    into the graph's global vertex table — the same two-level indexing
    GraphX's ``EdgePartition`` uses.
    """
    vertex_ids = pgraph.graph.vertex_ids
    num_partitions = pgraph.num_partitions
    pid_chunks, src_chunks, dst_chunks = [], [], []
    for partition in pgraph.partitions:
        if not partition.num_edges:
            continue
        local_src, local_dst = partition.local_triplets()
        global_of_mirror = np.searchsorted(vertex_ids, partition.vertex_ids)
        pid_chunks.append(
            np.full(partition.num_edges, partition.partition_id, dtype=np.int64)
        )
        src_chunks.append(global_of_mirror[local_src])
        dst_chunks.append(global_of_mirror[local_dst])
    if pid_chunks:
        edge_pid = np.concatenate(pid_chunks)
        src = np.concatenate(src_chunks)
        dst = np.concatenate(dst_chunks)
    else:
        edge_pid = np.empty(0, dtype=np.int64)
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    return TripletArrays(
        vertex_ids=vertex_ids,
        edge_pid=edge_pid,
        src=src,
        dst=dst,
        master_of=master_partition_array(vertex_ids, num_partitions),
        num_partitions=num_partitions,
    )


def active_edge_mask(
    active: np.ndarray,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    active_direction: str,
) -> np.ndarray:
    """Boolean mask of the triplets the scalar loop would scan."""
    if active_direction == "either":
        return active[src_idx] | active[dst_idx]
    if active_direction == "out":
        return active[src_idx]
    if active_direction == "in":
        return active[dst_idx]
    if active_direction == "both":
        return active[src_idx] & active[dst_idx]
    raise EngineError(
        f"active_direction must be 'either', 'out', 'in' or 'both', got {active_direction!r}"
    )


@dataclass
class FoldPlan:
    """The structure of one superstep's two-level message fold.

    ``slot_pid``/``slot_target`` identify the per-partition outbox entries
    (one slot per distinct ``(partition, target)`` pair, partition-major);
    ``target_idx`` the distinct recipients.  The plan depends only on which
    edges emitted to which targets, so ``always_active`` algorithms with a
    static message structure reuse it (and its routing counters) across
    supersteps.
    """

    slot_of_message: np.ndarray
    slot_pid: np.ndarray
    slot_target: np.ndarray
    target_of_slot: np.ndarray
    target_idx: np.ndarray

    @property
    def num_outbox_entries(self) -> int:
        return int(self.slot_pid.size)


def plan_fold(msg_pid: np.ndarray, target_idx: np.ndarray, num_vertices: int) -> FoldPlan:
    """Group the emitted messages by ``(partition, target)`` and by target."""
    slot_key = msg_pid * np.int64(num_vertices) + target_idx
    slots, slot_of_message = np.unique(slot_key, return_inverse=True)
    slot_pid = slots // num_vertices
    slot_target = slots - slot_pid * num_vertices
    targets, target_of_slot = np.unique(slot_target, return_inverse=True)
    return FoldPlan(
        slot_of_message=slot_of_message,
        slot_pid=slot_pid,
        slot_target=slot_target,
        target_of_slot=target_of_slot,
        target_idx=targets,
    )


def fold_messages(
    kernel: ArrayMessageKernel, plan: FoldPlan, messages: np.ndarray
) -> np.ndarray:
    """Reproduce the scalar outbox + shuffle fold with two ``ufunc.at`` passes.

    Pass 1 folds messages into their ``(partition, target)`` outbox slot in
    emission order (the scalar per-partition pre-aggregation); pass 2 folds
    the slot aggregates per target in ascending-partition order (``slots``
    are partition-major), exactly like the scalar ``_route_and_merge``
    master-side merge.  Returns the merged messages aligned with
    ``plan.target_idx``.
    """
    outbox = kernel.identity_array(plan.slot_pid.size)
    kernel.merge_ufunc.at(outbox, plan.slot_of_message, messages)
    merged = kernel.identity_array(plan.target_idx.size)
    kernel.merge_ufunc.at(merged, plan.target_of_slot, outbox)
    return merged


def route_counts(
    plan: FoldPlan,
    master_of: np.ndarray,
    executor_of: np.ndarray,
) -> Tuple[int, int]:
    """Remote/local shuffle message counts for one superstep's outboxes.

    Mirrors the scalar ``_route_and_merge`` accounting: one message per
    outbox entry whose target's master lives in a different partition;
    remote when that partition sits on a different executor.
    """
    masters = master_of[plan.slot_target]
    shipped = masters != plan.slot_pid
    if not shipped.any():
        return 0, 0
    remote = int(
        (executor_of[plan.slot_pid[shipped]] != executor_of[masters[shipped]]).sum()
    )
    return remote, int(shipped.sum()) - remote


def triplet_scan(
    trip: TripletArrays,
    kernel: ArrayMessageKernel,
    executor_of: np.ndarray,
    active_direction: str,
    always_active: bool,
):
    """The in-process scan strategy of the superstep driver.

    Returns ``scan(active, state) -> (target_idx, merged,
    scanned_per_partition, slots_per_partition, shuffle_remote,
    shuffle_local)`` over the flat triplet arrays.  ``always_active`` scans
    cover every triplet, so their per-partition edge counts are computed
    here once; kernels with a static message structure additionally reuse
    the first superstep's fold plan, slot counts and route counts.
    """
    num_partitions = trip.num_partitions
    all_counts = (
        np.bincount(trip.edge_pid, minlength=num_partitions) if always_active else None
    )
    static_structure = always_active and kernel.static_message_structure
    # The last superstep's fold plan and its slot/route counters.  Static
    # structures reuse them outright; otherwise they stay referenced until
    # the next plan replaces them, which also stops the allocator trimming
    # the heap between supersteps (CC on a road network: 4x fewer page
    # faults, 10-25% less wall time, than releasing them on return).
    plan = counters = None

    def scan(active, state):
        nonlocal plan, counters
        if always_active:
            src, dst, pid, scanned_counts = trip.src, trip.dst, trip.edge_pid, all_counts
        else:
            scanned = np.flatnonzero(
                active_edge_mask(active, trip.src, trip.dst, active_direction)
            )
            src, dst, pid = trip.src[scanned], trip.dst[scanned], trip.edge_pid[scanned]
            scanned_counts = np.bincount(pid, minlength=num_partitions)
        positions, target_idx, messages = kernel.send_message_array(src, dst, state)
        if plan is None or not static_structure:
            plan = plan_fold(pid[positions], target_idx, trip.num_vertices)
            counters = (
                np.bincount(plan.slot_pid, minlength=num_partitions),
                *route_counts(plan, trip.master_of, executor_of),
            )
        merged = fold_messages(kernel, plan, messages)
        return (plan.target_idx, merged, scanned_counts, *counters)

    return scan
