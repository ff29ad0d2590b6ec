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
touch, and ascending slot order *is* the scalar order twice over: a
slot's messages arrive in emission (edge-scan) order, which pass 1 folds
in place, and one target's slots ascend with their partition id, which is
the order pass 2 merges them in.  Both passes use ``ufunc.at`` — an
unbuffered, in-order left fold — rather than ``ufunc.reduceat``/``bincount``,
whose pairwise summation reassociates long segments, and start from the
kernel's ``merge_identity`` (``0.0`` for ``np.add``, ``+inf``/``INT64_MAX``
for ``np.minimum``), which is exact for the shipped merge operators.  A
slot is a shuffle message when its vertex is mastered in another
partition, so the remote/local counters are sums of static per-slot masks.

Frontier-proportional supersteps
--------------------------------
A data-driven superstep finds its scanned triplets one of two ways, both
giving ``flatnonzero(active_edge_mask(...))`` exactly: the *edge scan*
masks all E triplets; the *index scan* (GraphX's
``aggregateMessagesWithActiveSet``) gathers the live vertices' endpoint
positions from an endpoint-by-vertex CSR and keeps those the
``active_direction`` asks for, then sorts (and for ``either`` dedupes)
their triplet ids.  It runs when the live vertices' endpoint count is
below ``_INDEX_SCAN_SHARE`` of 2E.  Likewise the fold plan ranks the
distinct slots and targets either by marking R- and V-sized flag arrays
and ``flatnonzero`` (many messages) or by one argsort and its run heads
(``_SORT_PLAN_FACTOR`` times fewer messages than slots).  The index and
the flag arrays are built on first use and released with the run, never
kept on :class:`TripletArrays`: a session keeps every placement of the
grid alive, and caching the index there raised the grid's peak RSS by
13 % (219 to 248 MB).

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
from ..partitioning.membership import (
    CompiledPlacement,
    master_partition_array,
    segment_arange,
    sorted_unique,
    sorted_unique_inverse,
)
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


#: The index scan's crossover: a data-driven superstep gathers its live
#: vertices' triplets through the run's endpoint index when their endpoint
#: count is below this share of the 2E endpoints, and masks all E triplets
#: otherwise.  Measured per superstep on 2 cores, index time over mask time:
#: roadnet-ca scale 20, 2D, k = 128 (E = 86.5k) 0.13 below 1 %, 0.79 at
#: 7-9 %, 1.02 at 9-11 %, 1.27 at 11-15 %; youtube scale 20, Hybrid, k = 16
#: (E = 71.5k) 0.56 at 5-7 %, 1.46 at 11-15 %.  On the grid's roadnet-pa
#: cells (E = 6.7k) both scans take 15-35 us and the index is 1-10 us slower.
_INDEX_SCAN_SHARE = 0.10
#: The sort plan's crossover: a superstep with ``m`` messages ranks its
#: slots and targets by sorting when ``_SORT_PLAN_FACTOR * m`` is below the
#: slot count R, and by marking R- and V-sized flag arrays otherwise.
#: Measured as above, sort time over mark time: on roadnet-ca 1.85 at
#: R / m = 4-8, 1.14 at 8-16, 0.97 at 16-32 and 0.59-0.67 above 128; on
#: youtube 1.25 at 8-16, 1.10 at 16-32, 1.06 at 32-64 and level above 256.
#: Frontier SSSP on roadnet-ca stays above R / m = 228, so every plan of it
#: sorts and the run never allocates the R + V flag and rank arrays.
_SORT_PLAN_FACTOR = 32


def _endpoint_index(trip: TripletArrays) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, order)``: ``order[offsets[v]:offsets[v + 1]]`` are the
    endpoint positions of vertex ``v``, ascending (endpoint ``2i`` is triplet
    ``i``'s source, ``2i + 1`` its destination)."""
    # In the narrowest dtype: numpy's stable sort radix-sorts 16-bit keys.
    vertex_dtype = np.min_scalar_type(max(trip.num_vertices - 1, 0))
    endpoints = np.empty(2 * trip.num_edges, dtype=vertex_dtype)
    endpoints[0::2] = trip.src
    endpoints[1::2] = trip.dst
    order = np.argsort(endpoints, kind="stable")
    order = order.astype(np.int32 if endpoints.size <= np.iinfo(np.int32).max else np.int64)
    offsets = np.zeros(trip.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=trip.num_vertices), out=offsets[1:])
    return offsets, order


def _mark_ranks(values: np.ndarray, mark: np.ndarray, rank: np.ndarray):
    """``sorted_unique_inverse(values)`` through the all-``False`` flag array
    ``mark`` and the rank scratch ``rank`` (both indexed by value): linear in
    ``mark.size``, with no sort."""
    mark[values] = True
    distinct = np.flatnonzero(mark)
    mark[distinct] = False
    rank[distinct] = np.arange(distinct.size)
    return distinct, rank[values]


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
    # This run's scratch, built on first use and released with the run (runs
    # on one placement may overlap in threads, so none of it is shared): the
    # endpoint index of the index scan, and the flag and rank arrays of the
    # mark plan, all-``False`` between plans.
    index = None
    marks = None
    slot_dtype = np.min_scalar_type(max(trip.num_slots - 1, 0))
    vertex_dtype = np.min_scalar_type(max(trip.num_vertices - 1, 0))
    # The last superstep's fold plan.  Static structures reuse it outright;
    # otherwise it stays referenced until the next plan replaces it, which
    # also stops the allocator trimming the heap between supersteps (CC on
    # a road network: 4x fewer page faults, 10-25% less wall time, than
    # releasing it on return).
    plan = None
    # A static structure's ``send(state)``, from the first call's plan.
    send = None

    def scanned_triplets(active):
        """``flatnonzero(active_edge_mask(...))``: by the endpoint index
        when the live vertices' endpoints are few, else by the mask."""
        nonlocal index
        # The index is built once the live vertices are that share of V (a
        # run whose frontier never shrinks never builds it); from then on
        # their endpoint count, read off its offsets, picks the scan.
        if index is not None or (
            np.count_nonzero(active) < _INDEX_SCAN_SHARE * trip.num_vertices
        ):
            if index is None:
                index = _endpoint_index(trip)
            offsets, order = index
            live = np.flatnonzero(active)
            starts = offsets[live]
            counts = offsets[live + 1] - starts
            if counts.sum() < _INDEX_SCAN_SHARE * 2 * trip.num_edges:
                positions = order[segment_arange(starts, counts)]
                if active_direction == "either":
                    return sorted_unique(positions >> 1).astype(np.intp)
                if active_direction == "in":
                    positions = positions[(positions & 1) == 1]
                else:
                    positions = positions[(positions & 1) == 0]
                    if active_direction == "both":
                        positions = positions[active[trip.dst[positions >> 1]]]
                return np.sort(positions >> 1).astype(np.intp)
        return np.flatnonzero(active_edge_mask(active, trip.src, trip.dst, active_direction))

    def plan_slots(edges, dst_idx, target_idx):
        """Group the messages of triplets ``edges`` by outbox slot and by
        target: ascending slot order is partition-major."""
        nonlocal marks
        slot = message_slots(
            kernel, trip.endpoint_slot, (2, 1), edges, dst_idx, target_idx, trip.slot_vertex
        )
        if _SORT_PLAN_FACTOR * slot.size < trip.num_slots:
            # In their narrowest dtypes: numpy's stable sort radix-sorts keys
            # of up to 16 bits (roadnet-ca's 21.7k vertex ids, 4k messages:
            # 67 against 294 us as intp).
            slots, slot_of_message = sorted_unique_inverse(slot.astype(slot_dtype))
            targets, target_of_slot = sorted_unique_inverse(
                trip.slot_vertex[slots].astype(vertex_dtype)
            )
            targets = targets.astype(np.intp)
        else:
            if marks is None:
                marks = (
                    np.zeros(trip.num_slots, dtype=bool),
                    np.empty(trip.num_slots, dtype=np.intp),
                    np.zeros(trip.num_vertices, dtype=bool),
                    np.empty(trip.num_vertices, dtype=np.intp),
                )
            slots, slot_of_message = _mark_ranks(slot, *marks[:2])
            targets, target_of_slot = _mark_ranks(
                trip.slot_vertex[slots].astype(np.intp), *marks[2:]
            )
        remote = int(np.count_nonzero(slot_remote[slots]))
        return (
            slot_of_message,
            int(slots.size),
            target_of_slot,
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
            scanned = scanned_triplets(active)
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
