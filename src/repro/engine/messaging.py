"""Array-native message plane for the Pregel engine.

The scalar Pregel loop inside :func:`~repro.engine.pregel.pregel` scans
every edge triplet with a Python loop and merges messages through
per-target dict folds.  It serves custom Python computations and the test
suite's oracles; every shipped algorithm runs through this module instead.

This module is the array path.  An algorithm hands the engine an
:class:`ArrayMessageKernel` describing its messages as flat numpy arrays;
the engine then computes active-edge masks, per-target
message aggregation, master routing and remote/local message counts
entirely with array operations over the partition-major
:class:`TripletArrays` cached on the partitioned graph — the engine's view
of the placement :func:`~repro.partitioning.membership.compile_placement`
compiles once, from which the metrics' membership comes too.

Bit-identical folds
-------------------
The scalar engine folds messages strictly left-to-right: first within a
partition's outbox dict in edge-scan order, then across partitions in
partition-id order (``_route_and_merge`` walks the outboxes ascending).
Here every ``(partition, mirrored vertex)`` pair owns a fixed *replica
slot* of :class:`TripletArrays` — partition-major, vertex-ascending inside
a partition, GraphX's partition-local vertex id plus the partition's
offset — and a triplet knows the slots of its two endpoints.  A
superstep's outbox entries are therefore the distinct slots its messages
touch, found with a flag array and ``flatnonzero`` instead of a sort, and
ascending slot order *is* the scalar order twice over: a slot's messages
arrive in emission (edge-scan) order, which pass 1 folds in place, and
one target's slots ascend with their partition id, which is the order
pass 2 merges them in.  Both passes use ``ufunc.at`` — an unbuffered,
in-order left fold — rather than ``ufunc.reduceat``/``bincount``, whose
pairwise summation reassociates long segments, and start from the
kernel's ``merge_identity`` (``0.0`` for ``np.add``, ``+inf``/``INT64_MAX``
for ``np.minimum``), which is exact for the shipped merge operators.  A
slot is a shuffle message when its vertex is mastered in another
partition, so the remote/local counters are sums of static per-slot masks.

A kernel whose message structure is static (PageRank) hands the scan a
plan once per scan build: :meth:`ArrayMessageKernel.static_messages`
returns the emitting positions, their targets and a ``send(state)`` for
the payloads.  The fold plan is built from those positions and targets,
and every superstep then calls only ``send`` and the two folds.  ``send``
must return, elementwise, the very messages ``send_message_array`` would,
so both folds see the same operands in the same order and stay bit-identical.

The per-partition compute counters are computed as ``count * unit``
products instead of the scalar path's repeated additions; the two agree
bit-for-bit whenever the unit costs are dyadic rationals (0.25, 0.5, 1.0,
…), which holds for every unit cost in this code base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..errors import EngineError
from ..partitioning.membership import CompiledPlacement, master_partition_array
from .cluster import for_executor_map

__all__ = [
    "ArrayMessageKernel",
    "TripletArrays",
    "active_edge_mask",
    "message_slots",
    "triplet_scan",
]


class ArrayMessageKernel:
    """Vectorised message kernel an algorithm hands to :func:`pregel`.

    A kernel replaces the scalar ``vertex_program`` / ``send_message`` /
    ``merge_message`` callables with array equivalents over a dense vertex
    index (position in the graph's sorted ``vertex_ids`` array).  The
    contract is strict observational equivalence with the scalar triple:
    identical vertex values (bit for bit) and identical message sets.

    State is dense from caller to caller: :func:`pregel` takes the initial
    state as an array indexed by vertex position (``None`` if the messages
    never read it) and returns the final state as it stands; constant
    per-vertex inputs such as PageRank's out-degrees are constructor
    arguments of the kernel.  Subclasses set the class attributes below and
    implement the hooks their execution mode needs (:meth:`apply_messages`
    for the data-driven loop, :meth:`apply_messages_all` for
    ``always_active`` runs, neither for :func:`aggregate_messages`).
    Kernels with a ``static_message_structure`` also implement
    :meth:`static_messages`, the plan the in-process scan builds once per
    run; it must be elementwise equal to :meth:`send_message_array`.
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
    #: Lets the engine compute the fold plan and routing counters once; the
    #: in-process scan then sends through :meth:`static_messages`.
    static_message_structure = False

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

        A message may address only the source or the destination of its
        own triplet (GraphX's ``sendToSrc``/``sendToDst``): the engine
        folds it into that endpoint's replica slot and raises
        :class:`~repro.errors.EngineError` for any other target.  The
        scalar loop remains the path for arbitrary targets.
        """
        raise NotImplementedError

    def static_messages(
        self, src_idx: np.ndarray, dst_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Callable[[Any], np.ndarray]]:
        """The static message plan of a ``static_message_structure`` kernel.

        Returns ``(edge_positions, target_idx, send)`` for the triplets
        ``(src_idx[i], dst_idx[i])``, where ``send(state)`` returns the
        payloads for exactly those positions, in emission order.  The
        in-process scan calls it once per scan build, with its own triplet
        arrays, and then calls only ``send`` each superstep.  The plan must
        be elementwise equal to :meth:`send_message_array` on every state:
        the same positions and targets, and bit-identical messages.
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

    # -- helpers --------------------------------------------------------
    def identity_array(self, count: int) -> np.ndarray:
        """A fresh fold accumulator of ``count`` identity messages."""
        shape = (count,) if self.message_width is None else (count, self.message_width)
        return np.full(shape, self.merge_identity, dtype=self.message_dtype)


@dataclass
class TripletArrays:
    """The whole partitioned graph as flat, partition-major triplet arrays.

    ``src``/``dst`` are dense vertex indices (positions in ``vertex_ids``)
    and partition ``p`` owns the triplets ``edge_bounds[p]:edge_bounds[p+1]``
    and the *replica slots* ``slot_bounds[p]:slot_bounds[p+1]``, one per
    vertex it mirrors, ascending; ``slot_vertex`` is the dense vertex index
    of every slot.  ``endpoint_slot`` holds the slots of triplet ``i``'s
    endpoints — source at ``2 * i``, destination at ``2 * i + 1`` (GraphX's
    partition-local vertex ids plus the partition's first slot; interleaved
    so that picking an endpoint per message is one gather).  ``slot_shipped``
    marks the slots whose vertex is mastered in another partition, where an
    outbox entry is a shuffle message; ``master_of`` maps every dense vertex
    index to its master partition.

    The slot index costs ``2 * E * 4 + R * 5`` bytes (``R`` slots) plus one
    ``R``-byte mask per executor map, and is released with the placement.
    """

    vertex_ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    endpoint_slot: np.ndarray
    edge_bounds: np.ndarray
    slot_vertex: np.ndarray
    slot_bounds: np.ndarray
    slot_shipped: np.ndarray
    master_of: np.ndarray
    num_partitions: int
    _remote: Optional[Tuple[bytes, np.ndarray]] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_placement(cls, vertex_ids: np.ndarray, placement: CompiledPlacement) -> "TripletArrays":
        """The engine's view of a compiled placement over ``vertex_ids``:
        its arrays plus every vertex's master partition."""
        arrays = placement._asdict()
        num_partitions = arrays.pop("membership").num_partitions
        master_of = master_partition_array(vertex_ids, num_partitions)
        slot_pid = np.repeat(np.arange(num_partitions), np.diff(placement.slot_bounds))
        return cls(
            vertex_ids=vertex_ids,
            slot_shipped=master_of[placement.slot_vertex] != slot_pid,
            master_of=master_of,
            num_partitions=num_partitions,
            **arrays,
        )

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_ids.size)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def num_slots(self) -> int:
        return int(self.slot_vertex.size)

    def remote_slots(self, executor_of: np.ndarray) -> np.ndarray:
        """Mask of the slots whose master sits on another executor (hence in
        another partition), kept for the last executor map."""
        kept = self._remote = for_executor_map(
            self._remote,
            executor_of,
            lambda: np.repeat(executor_of, np.diff(self.slot_bounds))
            != executor_of[self.master_of[self.slot_vertex]],
        )
        return kept[1]

    def edge_lists(self) -> List[List[Tuple[int, int]]]:
        """Every partition's edges as ``(src, dst)`` vertex-id tuples, in
        scan order: the input of the scalar reference loops."""
        src = self.vertex_ids[self.src].tolist()
        dst = self.vertex_ids[self.dst].tolist()
        bounds = self.edge_bounds.tolist()
        return [list(zip(src[a:b], dst[a:b])) for a, b in zip(bounds, bounds[1:])]


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


def message_slots(kernel, endpoint_slot, layout, edges, dst_idx, target_idx, slot_vertex):
    """The replica slot of each message of triplets ``edges``: the
    destination's if ``target_idx`` is the triplet's ``dst_idx``, else the
    source's (neither is an :class:`EngineError`).  Triplet ``e``'s source
    slot is ``endpoint_slot[e * step]``, its destination's ``dst_offset``
    later; ``(step, dst_offset) = layout`` is ``(2, 1)`` for
    :class:`TripletArrays`, ``(1, E)`` for a shard's ``(2, E)`` edges."""
    step, dst_offset = layout
    endpoint = edges * step
    endpoint += (target_idx == dst_idx) * dst_offset
    slot = endpoint_slot[endpoint].astype(np.intp)
    stray = np.flatnonzero(slot_vertex[slot] != target_idx)
    if stray.size:
        raise EngineError(
            f"{type(kernel).__name__}.send_message_array addressed {stray.size} "
            "messages to vertices that are not an endpoint of their triplet (first: "
            f"vertex index {int(target_idx[stray[0]])} from triplet {int(edges[stray[0]])}); "
            "use the scalar loop for arbitrary targets"
        )
    return slot


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
    cover every triplet; kernels with a static message structure
    additionally build their message plan
    (:meth:`~ArrayMessageKernel.static_messages`), fold plan and counters
    on the first call and then only send payloads.
    """
    static_structure = always_active and kernel.static_message_structure
    slot_remote = trip.remote_slots(executor_of)
    # This run's flag and rank scratch, all-``False`` between plans (runs on
    # one placement may overlap in threads, so it is not shared).
    slot_mark = np.zeros(trip.num_slots, dtype=bool)
    slot_rank = np.empty(trip.num_slots, dtype=np.intp)
    vertex_mark = np.zeros(trip.num_vertices, dtype=bool)
    vertex_rank = np.empty(trip.num_vertices, dtype=np.intp)
    # The last superstep's fold plan.  Static structures reuse it outright;
    # otherwise it stays referenced until the next plan replaces it, which
    # also stops the allocator trimming the heap between supersteps (CC on
    # a road network: 4x fewer page faults, 10-25% less wall time, than
    # releasing it on return).
    plan = None
    # A static structure's ``send(state)``, from the first call's plan.
    send = None

    def plan_slots(edges, dst_idx, target_idx):
        """Group the messages of triplets ``edges`` by outbox slot and by
        target without sorting: ascending slot order is partition-major."""
        slot = message_slots(
            kernel, trip.endpoint_slot, (2, 1), edges, dst_idx, target_idx, trip.slot_vertex
        )
        slot_mark[slot] = True
        slots = np.flatnonzero(slot_mark)
        slot_mark[slots] = False
        slot_rank[slots] = np.arange(slots.size)
        slot_target = trip.slot_vertex[slots].astype(np.intp)
        vertex_mark[slot_target] = True
        targets = np.flatnonzero(vertex_mark)
        vertex_mark[targets] = False
        vertex_rank[targets] = np.arange(targets.size)
        remote = int(np.count_nonzero(slot_remote[slots]))
        return (
            slot_rank[slot],
            int(slots.size),
            vertex_rank[slot_target],
            targets,
            np.diff(np.searchsorted(slots, trip.slot_bounds)),
            remote,
            int(np.count_nonzero(trip.slot_shipped[slots])) - remote,
        )

    def scan(active, state):
        nonlocal plan, send
        if always_active:
            scanned, src, dst = None, trip.src, trip.dst
            scanned_counts = np.diff(trip.edge_bounds)
        else:
            scanned = np.flatnonzero(
                active_edge_mask(active, trip.src, trip.dst, active_direction)
            )
            src, dst = trip.src[scanned], trip.dst[scanned]
            scanned_counts = np.diff(np.searchsorted(scanned, trip.edge_bounds))
        if static_structure:
            if send is None:
                positions, target_idx, send = kernel.static_messages(src, dst)
                plan = plan_slots(positions, dst[positions], target_idx)
            messages = send(state)
        else:
            positions, target_idx, messages = kernel.send_message_array(src, dst, state)
            edges = positions if scanned is None else scanned[positions]
            plan = plan_slots(edges, dst[positions], target_idx)
        slot_of_message, num_slots, target_of_slot, targets, *counters = plan
        # Pass 1 folds the messages into their outbox slot in emission order,
        # pass 2 the slot aggregates per target in ascending slot order.
        outbox = kernel.identity_array(num_slots)
        kernel.merge_ufunc.at(outbox, slot_of_message, messages)
        merged = kernel.identity_array(targets.size)
        kernel.merge_ufunc.at(merged, target_of_slot, outbox)
        return (targets, merged, scanned_counts, *counters)

    return scan
