"""GraphX-style Pregel (BSP) execution over a partitioned graph.

The loop mirrors ``org.apache.spark.graphx.Pregel``:

1. every vertex runs the vertex program once with the initial message;
2. each superstep scans the edge triplets whose endpoints are *active*
   (received a message in the previous superstep), produces messages,
   pre-aggregates them per edge partition, ships them to the vertex
   masters, applies the vertex program there and finally broadcasts the
   updated vertex values back to every partition that mirrors the vertex;
3. the computation stops when no messages are produced or the iteration
   cap is reached.

Every shuffle and broadcast is counted and priced by the
:class:`~repro.engine.cost_model.CostModel`, producing the simulated
execution time the evaluation benchmarks correlate with the partitioning
metrics.

One driver, three scans
-----------------------
The loop is written twice: the scalar dict loop inside :func:`pregel`
(arbitrary Python payloads, for custom computations; the test suite's
oracles in ``tests/pregel_oracles.py`` run the shipped algorithms through
it) and :func:`_run_supersteps`, the only kernelised loop.  The
driver owns superstep 0, the active set, the vertex program, the replica
broadcast and every ``record_superstep`` call, so a change to superstep
behaviour or accounting is made there, once.  How a superstep's edges are
scanned and its messages folded is a *scan strategy*, ``scan(active,
state) -> (target_idx, merged, scanned_per_partition,
slots_per_partition, shuffle_remote, shuffle_local)``, picked by
:func:`pregel` from what it can observe:

* in-process triplet arrays — :func:`repro.engine.messaging.triplet_scan`,
  the default;
* the shm pool — :meth:`repro.engine.parallel.ParallelPregelExecutor.scan`,
  for ``parallel_workers >= 2`` on a non-empty graph where shared memory
  works;
* the mmap chunk walk — :func:`repro.ooc.pregel_stream.stream_scan`, for
  graphs that set ``stream_supersteps``.

The kernelised loop is dense end to end: it takes the initial state as an
array indexed by position in ``graph.vertex_ids`` and returns the final
state as :attr:`PregelResult.vertex_values`; only the scalar loop speaks
``{vertex: value}`` dicts.

All three are bit-identical to each other and to the scalar loop because
outbox entries live in replica slots — one per ``(partition, mirrored
vertex)`` pair, partition-major — and every fold is an in-order,
unbuffered ``ufunc.at`` left fold in ascending slot order, which is the
order of the scalar dict folds; "Bit-identical folds" in
:mod:`repro.engine.messaging` has the argument.  Splitting the work by
partition (pool workers, mmapped shards) keeps that order, and the driver
turns the returned counts into compute units with the same ``count *
unit`` products and the same addition order on every path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import EngineError, require_count
from ..partitioning.membership import master_partition_array, segment_arange
from .cluster import ClusterConfig, paper_cluster
from .cost_model import CostModel, CostParameters, SimulationReport
from .messaging import ArrayMessageKernel, triplet_scan
from .parallel import ParallelPregelExecutor, parallel_supported
from .partitioned_graph import PartitionedGraph

__all__ = [
    "MergeMessage",
    "PregelResult",
    "SendMessage",
    "VertexProgram",
    "pregel",
    "aggregate_messages",
]

VertexProgram = Callable[[int, Any, Any], Any]
SendMessage = Callable[[int, Any, int, Any], Iterable[Tuple[int, Any]]]
MergeMessage = Callable[[Any, Any], Any]

#: Compute units charged for serialising one shuffled message.
_MESSAGE_SERIALIZE_UNITS = 0.25
#: Compute units charged for applying one replica synchronisation.
_SYNC_APPLY_UNITS = 0.1


@dataclass
class PregelResult:
    """Outcome of a Pregel run: final vertex values plus the simulation report.

    ``vertex_values`` is the scalar loop's ``{vertex: value}`` dict, or
    with a ``message_kernel`` the final dense state, indexed like
    ``graph.vertex_ids``.
    """

    vertex_values: Any
    num_supersteps: int
    report: SimulationReport

    @property
    def simulated_seconds(self) -> float:
        """End-to-end simulated execution time."""
        return self.report.total_seconds


def _check_direction(active_direction: str) -> None:
    if active_direction not in ("either", "out", "in", "both"):
        raise EngineError(
            f"active_direction must be 'either', 'out', 'in' or 'both', got {active_direction!r}"
        )


def _require_callbacks(*callbacks: Optional[Callable]) -> None:
    if any(callback is None for callback in callbacks):
        raise EngineError(
            "the scalar loop needs every message callback; pass them all "
            "or a message_kernel"
        )


def _scalar_edge_lists(pgraph: PartitionedGraph) -> List[List[Tuple[int, int]]]:
    """Each partition's edges as Python tuples, for the scalar loops; an
    out-of-core graph is refused rather than materialised in memory."""
    if getattr(pgraph, "stream_supersteps", False):
        raise EngineError(
            "out-of-core graphs require an array message kernel; the scalar "
            "Pregel loop would materialise every partition's edges in memory"
        )
    return pgraph.triplets().edge_lists()


def _scalar_masters(pgraph: PartitionedGraph) -> Dict[int, int]:
    """``{vertex: master partition}`` for the scalar loops' per-vertex
    lookups (the payloads are arbitrary Python objects, so those loops
    are inherently scalar)."""
    vertex_ids = pgraph.graph.vertex_ids
    masters = master_partition_array(vertex_ids, pgraph.num_partitions)
    return dict(zip(vertex_ids.tolist(), masters.tolist()))


def _route_and_merge(
    masters: Dict[int, int],
    cluster: ClusterConfig,
    outboxes: List[Dict[int, Any]],
    merge_message: MergeMessage,
    partition_units: List[float],
) -> Tuple[Dict[int, Any], int, int]:
    """Ship per-partition pre-aggregated messages to vertex masters.

    Returns ``(merged_messages, remote_count, local_count)``.
    """
    merged: Dict[int, Any] = {}
    remote = 0
    local = 0
    for partition_id, outbox in enumerate(outboxes):
        if not outbox:
            continue
        from_executor = cluster.executor_of_partition(partition_id)
        for target, message in outbox.items():
            master = masters.get(target)
            if master is None:
                raise EngineError(
                    f"send_message targeted unknown vertex {target!r} from partition "
                    f"{partition_id}; messages may only address vertices of the graph"
                )
            partition_units[partition_id] += _MESSAGE_SERIALIZE_UNITS
            if master != partition_id:
                if cluster.executor_of_partition(master) != from_executor:
                    remote += 1
                else:
                    local += 1
            if target in merged:
                merged[target] = merge_message(merged[target], message)
            else:
                merged[target] = message
    return merged, remote, local


def _broadcast_dense(
    plan: Tuple[np.ndarray, np.ndarray, np.ndarray],
    target_idx: np.ndarray,
    partition_units: np.ndarray,
) -> Tuple[int, int]:
    """Push the master values of the distinct dense vertex indices
    ``target_idx`` to every replica partition, read off the placement's
    :meth:`~repro.engine.routing.RoutingTable.broadcast_plan`.

    Returns ``(remote_count, local_count)``.  The volume of this broadcast
    is what the CommCost metric approximates.
    """
    offsets, partitions, remote_of = plan
    starts = offsets[target_idx]
    positions = segment_arange(starts, offsets[target_idx + 1] - starts)
    partition_units += _SYNC_APPLY_UNITS * np.bincount(
        partitions[positions], minlength=partition_units.size
    )
    remote = int(remote_of[target_idx].sum())
    return remote, int(positions.size) - remote


def _broadcast_updates(
    pgraph: PartitionedGraph,
    cluster: ClusterConfig,
    updated_vertices: Iterable[int],
    partition_units: List[float],
) -> Tuple[int, int]:
    """:func:`_broadcast_dense` for the scalar loop's vertex ids and unit
    list (ids outside the graph have no replicas)."""
    vertex_ids = pgraph.graph.vertex_ids
    ids = np.fromiter(updated_vertices, dtype=np.int64)
    target_idx = np.searchsorted(vertex_ids, ids[np.isin(ids, vertex_ids)])
    plan = pgraph.routing.broadcast_plan(cluster.executor_map(pgraph.num_partitions))
    units = np.array(partition_units)
    counts = _broadcast_dense(plan, target_idx, units)
    partition_units[:] = units.tolist()
    return counts


def pregel(
    pgraph: PartitionedGraph,
    initial_values: Any,
    initial_message: Any = None,
    vertex_program: Optional[VertexProgram] = None,
    send_message: Optional[SendMessage] = None,
    merge_message: Optional[MergeMessage] = None,
    max_iterations: int = 20,
    active_direction: str = "either",
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    edge_compute_units: float = 1.0,
    vertex_compute_units: float = 1.0,
    always_active: bool = False,
    default_message: Any = None,
    message_kernel: Optional[ArrayMessageKernel] = None,
    parallel_workers: Optional[int] = None,
) -> PregelResult:
    """Run a Pregel computation on ``pgraph`` and simulate its execution time.

    Parameters
    ----------
    pgraph:
        The partitioned graph to compute on.
    initial_values:
        The scalar loop's ``{vertex: value}`` dict, covering every vertex of
        the graph; with a ``message_kernel``, the dense initial state
        indexed by position in ``graph.vertex_ids`` (``None`` if the kernel
        never reads state), which the kernel may update in place.
    initial_message:
        Message delivered to every vertex in superstep 0.
    vertex_program:
        ``(vertex, value, message) -> new_value``.
    send_message:
        ``(src, src_value, dst, dst_value) -> iterable of (target, message)``;
        called once per scanned edge triplet.
    merge_message:
        Commutative, associative combiner for messages to the same vertex.

        The three callbacks are the scalar loop's; they are required unless
        a ``message_kernel`` is given, which replaces all three (and
        ``initial_message`` / ``default_message``).
    max_iterations:
        Maximum number of message-exchange supersteps, an integer >= 0.
    active_direction:
        Which endpoint must be active for a triplet to be scanned:
        ``"either"`` (default), ``"out"`` (source active), ``"in"``
        (destination active) or ``"both"``.
    cluster, cost_parameters:
        Simulated cluster topology and unit costs; defaults to the paper's
        4-executor cluster with default calibration.
    edge_compute_units, vertex_compute_units:
        Abstract compute charged per scanned triplet and per vertex-program
        invocation; algorithms use these to express how compute-heavy they
        are relative to their communication.
    always_active:
        When ``True`` the computation behaves like GraphX's *static*
        algorithms: every vertex stays active, the vertex program runs on
        every vertex every superstep (vertices that received no message get
        ``default_message``) and the loop runs exactly ``max_iterations``
        supersteps.
    default_message:
        Message handed to vertices that received nothing when
        ``always_active`` is set.
    message_kernel:
        Optional :class:`~repro.engine.messaging.ArrayMessageKernel`.  When
        given, the kernelised driver runs instead of the scalar loop,
        producing bit-identical vertex values and identical superstep
        counters; the scalar loop is the path for arbitrary Python
        payloads.
    parallel_workers:
        With a ``message_kernel`` and ``parallel_workers >= 2``, each scan
        fans out across a persistent process pool attached to shared-memory
        copies of the partition triplets (see
        :mod:`repro.engine.parallel`).  ``None``/1 scans in-process; the
        scalar path (no kernel) and out-of-core graphs ignore it; platforms
        without working shared memory fall back to the in-process scan.
    """
    _check_direction(active_direction)
    max_iterations = require_count(max_iterations, "max_iterations", 0, EngineError)
    if parallel_workers is not None and int(parallel_workers) < 1:
        raise EngineError(
            f"parallel_workers must be >= 1, got {parallel_workers!r}"
        )

    cluster = cluster or paper_cluster()
    model = CostModel(cluster, cost_parameters)
    report = model.new_report()
    report.load_seconds = model.load_seconds(pgraph.dataset_bytes)

    if message_kernel is not None:
        streaming = getattr(pgraph, "stream_supersteps", False)
        vertex_ids = pgraph.graph.vertex_ids
        # Out-of-core graphs never materialise the global triplet arrays.
        master_of = (
            master_partition_array(vertex_ids, pgraph.num_partitions)
            if streaming
            else pgraph.triplets().master_of
        )
        state = initial_values
        if state is not None and len(state) != vertex_ids.size:
            raise EngineError(
                f"the initial state has {len(state)} rows for {vertex_ids.size} vertices"
            )
        strategy = (
            message_kernel,
            cluster.executor_map(pgraph.num_partitions),
            active_direction,
            always_active,
        )
        if streaming:
            scanning = nullcontext(pgraph.stream_scan(master_of, *strategy))
        elif (
            parallel_workers is not None
            and int(parallel_workers) > 1
            and pgraph.graph.num_edges > 0
            and pgraph.graph.num_vertices > 0
            and parallel_supported()
        ):
            executor = ParallelPregelExecutor.for_graph(pgraph, int(parallel_workers))
            scanning = executor.scan(state, *strategy)
        else:
            scanning = nullcontext(triplet_scan(pgraph.triplets(), *strategy))
        with scanning as scan:
            return _run_supersteps(
                pgraph,
                master_of,
                message_kernel,
                state,
                scan,
                max_iterations=max_iterations,
                cluster=cluster,
                model=model,
                report=report,
                edge_compute_units=edge_compute_units,
                vertex_compute_units=vertex_compute_units,
                always_active=always_active,
            )

    _require_callbacks(vertex_program, send_message, merge_message)
    missing = [v for v in pgraph.graph.vertex_ids.tolist() if v not in initial_values]
    if missing:
        raise EngineError(
            f"initial_values is missing {len(missing)} vertices (e.g. {missing[:3]})"
        )
    edge_lists = _scalar_edge_lists(pgraph)
    values: Dict[int, Any] = dict(initial_values)
    num_partitions = pgraph.num_partitions

    # ------------------------------------------------------------------
    # Superstep 0: run the vertex program everywhere with the initial
    # message, then materialise the replicated vertex view.
    # ------------------------------------------------------------------
    partition_units = [0.0] * num_partitions
    masters = _scalar_masters(pgraph)
    for vertex in values:
        values[vertex] = vertex_program(vertex, values[vertex], initial_message)
        master = masters.get(vertex)
        if master is not None:
            partition_units[master] += vertex_compute_units
    sync_remote, sync_local = _broadcast_updates(pgraph, cluster, values.keys(), partition_units)
    model.record_superstep(
        report,
        superstep=0,
        partition_units=partition_units,
        messages_remote=sync_remote,
        messages_local=sync_local,
        active_vertices=len(values),
        edges_scanned=0,
    )

    active = set(values.keys())
    supersteps = 0

    # ------------------------------------------------------------------
    # Message-exchange supersteps.
    # ------------------------------------------------------------------
    while active and supersteps < max_iterations:
        supersteps += 1
        partition_units = [0.0] * num_partitions
        outboxes: List[Dict[int, Any]] = [dict() for _ in range(num_partitions)]
        edges_scanned = 0

        for partition_id, edges in enumerate(edge_lists):
            outbox = outboxes[partition_id]
            units = 0.0
            for src, dst in edges:
                if active_direction == "either":
                    is_active = src in active or dst in active
                elif active_direction == "out":
                    is_active = src in active
                elif active_direction == "in":
                    is_active = dst in active
                else:  # both
                    is_active = src in active and dst in active
                if not is_active:
                    continue
                edges_scanned += 1
                units += edge_compute_units
                for target, message in send_message(src, values[src], dst, values[dst]):
                    if target in outbox:
                        outbox[target] = merge_message(outbox[target], message)
                    else:
                        outbox[target] = message
            partition_units[partition_id] += units

        merged, shuffle_remote, shuffle_local = _route_and_merge(
            masters, cluster, outboxes, merge_message, partition_units
        )

        if not merged and not always_active:
            # The scan itself still happened; account for it, then stop.
            model.record_superstep(
                report,
                superstep=supersteps,
                partition_units=partition_units,
                messages_remote=shuffle_remote,
                messages_local=shuffle_local,
                active_vertices=0,
                edges_scanned=edges_scanned,
            )
            active = set()
            break

        if always_active:
            updated = list(values.keys())
            for vertex in updated:
                message = merged.get(vertex, default_message)
                values[vertex] = vertex_program(vertex, values[vertex], message)
                master = masters.get(vertex)
                if master is not None:
                    partition_units[master] += vertex_compute_units
        else:
            updated = list(merged.keys())
            for vertex in updated:
                values[vertex] = vertex_program(vertex, values[vertex], merged[vertex])
                master = masters.get(vertex)
                if master is not None:
                    partition_units[master] += vertex_compute_units

        sync_remote, sync_local = _broadcast_updates(pgraph, cluster, updated, partition_units)

        model.record_superstep(
            report,
            superstep=supersteps,
            partition_units=partition_units,
            messages_remote=shuffle_remote + sync_remote,
            messages_local=shuffle_local + sync_local,
            active_vertices=len(updated),
            edges_scanned=edges_scanned,
        )
        active = set(values.keys()) if always_active else set(merged.keys())

    return PregelResult(
        vertex_values=values,
        num_supersteps=report.num_supersteps,
        report=report,
    )


def _run_supersteps(
    pgraph: PartitionedGraph,
    master_of: np.ndarray,
    kernel: ArrayMessageKernel,
    state: Any,
    scan: Callable,
    max_iterations: int,
    cluster: ClusterConfig,
    model: CostModel,
    report: SimulationReport,
    edge_compute_units: float,
    vertex_compute_units: float,
    always_active: bool,
) -> PregelResult:
    """The one kernelised superstep loop (same observable behaviour as the
    scalar loop in :func:`pregel`, computed over dense arrays).

    Owns superstep 0, the active set, the vertex program, the replica
    broadcast and every cost-model record; ``scan(active, state)`` — one of
    the three strategies named in the module docstring — does the edge
    scan and message fold and returns ``(target_idx, merged,
    scanned_per_partition, slots_per_partition, shuffle_remote,
    shuffle_local)``.
    """
    num_vertices = pgraph.graph.num_vertices
    num_partitions = pgraph.num_partitions
    vertex_units_per_master = (
        np.bincount(master_of, minlength=num_partitions) * vertex_compute_units
    )
    broadcast = pgraph.routing.broadcast_plan(cluster.executor_map(num_partitions))
    # The all-vertices broadcast: superstep 0 uses it, and so does every
    # superstep of an ``always_active`` run, so it is computed once.
    all_sync_units = np.zeros(num_partitions, dtype=np.float64)
    all_sync_remote, all_sync_local = _broadcast_dense(
        broadcast, np.arange(num_vertices), all_sync_units
    )

    # Superstep 0: vertex program everywhere with the initial message.
    state = kernel.initial_program(state)
    model.record_superstep(
        report,
        superstep=0,
        partition_units=vertex_units_per_master + all_sync_units,
        messages_remote=all_sync_remote,
        messages_local=all_sync_local,
        active_vertices=num_vertices,
        edges_scanned=0,
    )

    active = np.ones(num_vertices, dtype=bool)
    supersteps = 0
    while active.any() and supersteps < max_iterations:
        supersteps += 1
        target_idx, merged, scanned, slots, shuffle_remote, shuffle_local = scan(
            active, state
        )
        edges_scanned = int(scanned.sum())
        partition_units = np.multiply(scanned, edge_compute_units, dtype=np.float64)
        partition_units += slots * _MESSAGE_SERIALIZE_UNITS

        if not target_idx.size and not always_active:
            # The scan itself still happened; account for it, then stop.
            model.record_superstep(
                report,
                superstep=supersteps,
                partition_units=partition_units,
                messages_remote=shuffle_remote,
                messages_local=shuffle_local,
                active_vertices=0,
                edges_scanned=edges_scanned,
            )
            break

        if always_active:
            state = kernel.apply_messages_all(state, target_idx, merged)
            partition_units += vertex_units_per_master
            partition_units += all_sync_units
            sync_remote, sync_local = all_sync_remote, all_sync_local
            num_updated = num_vertices
        else:
            state = kernel.apply_messages(state, target_idx, merged)
            partition_units += (
                np.bincount(master_of[target_idx], minlength=num_partitions)
                * vertex_compute_units
            )
            sync_remote, sync_local = _broadcast_dense(
                broadcast, target_idx, partition_units
            )
            num_updated = int(target_idx.size)
            active = np.zeros(num_vertices, dtype=bool)
            active[target_idx] = True
        model.record_superstep(
            report,
            superstep=supersteps,
            partition_units=partition_units,
            messages_remote=shuffle_remote + sync_remote,
            messages_local=shuffle_local + sync_local,
            active_vertices=num_updated,
            edges_scanned=edges_scanned,
        )

    return PregelResult(
        vertex_values=state,
        num_supersteps=report.num_supersteps,
        report=report,
    )


def aggregate_messages(
    pgraph: PartitionedGraph,
    vertex_values: Any,
    send_message: Optional[SendMessage] = None,
    merge_message: Optional[MergeMessage] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    report: Optional[SimulationReport] = None,
    edge_compute_units: float = 1.0,
    message_kernel: Optional[ArrayMessageKernel] = None,
) -> Tuple[Any, SimulationReport]:
    """One-shot ``aggregateMessages``: scan every triplet once and merge per target.

    Used by algorithms that are not naturally iterative (degree computation,
    neighbourhood collection for triangle counting).  When ``report`` is
    given, the superstep is appended to it; otherwise a fresh report is
    created.  Without a ``message_kernel``, ``send_message`` and
    ``merge_message`` are required, ``vertex_values`` is a
    ``{vertex: value}`` dict and the merged messages come back as one.  A
    ``message_kernel`` selects the array-native scan over the dense state
    ``vertex_values`` (as for :func:`pregel`) and returns the merged
    messages as ``(target_idx, merged)`` arrays, with the same observable
    results.
    """
    cluster = cluster or paper_cluster()
    model = CostModel(cluster, cost_parameters)
    if report is None:
        report = model.new_report()
        report.load_seconds = model.load_seconds(pgraph.dataset_bytes)

    if message_kernel is not None:
        # One all-edges call of the in-process or the mmap scan strategy.
        vertex_ids = pgraph.graph.vertex_ids
        num_partitions = pgraph.num_partitions
        strategy = (message_kernel, cluster.executor_map(num_partitions), "either", True)
        if getattr(pgraph, "stream_supersteps", False):
            master_of = master_partition_array(vertex_ids, num_partitions)
            scan = pgraph.stream_scan(master_of, *strategy)
        else:
            scan = triplet_scan(pgraph.triplets(), *strategy)
        target_idx, merged, scanned, slots, remote, local = scan(None, vertex_values)
        partition_units = np.multiply(scanned, edge_compute_units, dtype=np.float64)
        partition_units += slots * _MESSAGE_SERIALIZE_UNITS
        model.record_superstep(
            report,
            superstep=report.num_supersteps,
            partition_units=partition_units,
            messages_remote=remote,
            messages_local=local,
            active_vertices=int(target_idx.size),
            edges_scanned=int(scanned.sum()),
        )
        return (target_idx, merged), report

    _require_callbacks(send_message, merge_message)
    edge_lists = _scalar_edge_lists(pgraph)
    num_partitions = pgraph.num_partitions
    partition_units = [0.0] * num_partitions
    outboxes: List[Dict[int, Any]] = [dict() for _ in range(num_partitions)]
    edges_scanned = 0

    for partition_id, edges in enumerate(edge_lists):
        outbox = outboxes[partition_id]
        for src, dst in edges:
            edges_scanned += 1
            partition_units[partition_id] += edge_compute_units
            for target, message in send_message(
                src, vertex_values.get(src), dst, vertex_values.get(dst)
            ):
                if target in outbox:
                    outbox[target] = merge_message(outbox[target], message)
                else:
                    outbox[target] = message

    merged, remote, local = _route_and_merge(
        _scalar_masters(pgraph), cluster, outboxes, merge_message, partition_units
    )
    model.record_superstep(
        report,
        superstep=report.num_supersteps,
        partition_units=partition_units,
        messages_remote=remote,
        messages_local=local,
        active_vertices=len(merged),
        edges_scanned=edges_scanned,
    )
    return merged, report
