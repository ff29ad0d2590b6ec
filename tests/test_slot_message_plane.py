"""The replica-slot message plane against the sort-based fold it replaced.

``messaging.triplet_scan`` plans every superstep's two-level fold with flag
arrays over fixed replica slots.  The planner it replaced grouped the
messages with two ``np.unique(..., return_inverse=True)`` sorts; that code
lives on here as the oracle (``plan_fold`` / ``fold_messages`` /
``route_counts``), and one property drives both side by side, superstep by
superstep, over random multigraphs, every registry partitioner, the four
kernels and every ``active_direction``.  The driver's dense broadcast plan
is checked the same way against ``_broadcast_updates``.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.connected_components import ConnectedComponentsKernel
from repro.algorithms.degrees import DegreeKernel
from repro.algorithms.pagerank import PageRankKernel
from repro.algorithms.shortest_paths import ShortestPathsKernel
from repro.core.graph import Graph
from repro.engine.cluster import ClusterConfig, paper_cluster
from repro.engine.messaging import active_edge_mask, triplet_scan
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import (
    _SYNC_APPLY_UNITS,
    _broadcast_dense,
    _broadcast_updates,
    aggregate_messages,
    pregel,
)
from repro.errors import EngineError
from repro.ooc import GraphChunkSource, ingest_source
from repro.partitioning.membership import segment_arange
from repro.partitioning.registry import available_partitioners
from repro.session.store import ArtifactStore

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The oracle: the sort-based planner, as it stood in engine/messaging.py.
# ----------------------------------------------------------------------
class FoldPlan(NamedTuple):
    slot_of_message: np.ndarray
    slot_pid: np.ndarray
    slot_target: np.ndarray
    target_of_slot: np.ndarray
    target_idx: np.ndarray


def plan_fold(msg_pid, target_idx, num_vertices) -> FoldPlan:
    """Group the emitted messages by ``(partition, target)`` and by target."""
    slot_key = msg_pid * np.int64(num_vertices) + target_idx
    slots, slot_of_message = np.unique(slot_key, return_inverse=True)
    slot_pid = slots // num_vertices
    slot_target = slots - slot_pid * num_vertices
    targets, target_of_slot = np.unique(slot_target, return_inverse=True)
    return FoldPlan(slot_of_message, slot_pid, slot_target, target_of_slot, targets)


def fold_messages(kernel, plan: FoldPlan, messages) -> np.ndarray:
    """The scalar outbox + shuffle fold as two in-order ``ufunc.at`` passes."""
    outbox = kernel.identity_array(plan.slot_pid.size)
    kernel.merge_ufunc.at(outbox, plan.slot_of_message, messages)
    merged = kernel.identity_array(plan.target_idx.size)
    kernel.merge_ufunc.at(merged, plan.target_of_slot, outbox)
    return merged


def route_counts(plan: FoldPlan, master_of, executor_of):
    """One shuffle message per outbox entry mastered in another partition;
    remote when that partition sits on another executor."""
    masters = master_of[plan.slot_target]
    shipped = masters != plan.slot_pid
    remote = int((executor_of[plan.slot_pid[shipped]] != executor_of[masters[shipped]]).sum())
    return remote, int(shipped.sum()) - remote


def oracle_scan(trip, kernel, executor_of, active_direction, always_active, active, state):
    edge_pid = np.repeat(np.arange(trip.num_partitions), np.diff(trip.edge_bounds))
    if always_active:
        src, dst, pid = trip.src, trip.dst, edge_pid
    else:
        scanned = np.flatnonzero(active_edge_mask(active, trip.src, trip.dst, active_direction))
        src, dst, pid = trip.src[scanned], trip.dst[scanned], edge_pid[scanned]
    positions, target_idx, messages = kernel.send_message_array(src, dst, state)
    plan = plan_fold(pid[positions], target_idx, trip.num_vertices)
    return (
        plan.target_idx,
        fold_messages(kernel, plan, messages),
        np.bincount(pid, minlength=trip.num_partitions),
        np.bincount(plan.slot_pid, minlength=trip.num_partitions),
        *route_counts(plan, trip.master_of, executor_of),
    )


def replica_sync_pairs(routing, vertex_ids):
    """``(replica_partition, master_partition)`` rows for every non-master
    replica of ``vertex_ids``, as it stood on ``RoutingTable``."""
    membership = routing.membership
    placed = np.isin(vertex_ids, membership.vertices)
    idx = np.searchsorted(membership.vertices, vertex_ids[placed])
    starts = membership.offsets[idx]
    counts = membership.offsets[idx + 1] - starts
    parts = membership.pair_partition[segment_arange(starts, counts)]
    masters = np.repeat(routing.master_of_placed[idx], counts)
    keep = parts != masters
    return parts[keep], masters[keep]


def oracle_broadcast(pgraph, cluster, updated_vertices, partition_units):
    """``_broadcast_updates`` as it stood in engine/pregel.py."""
    routing = pgraph.routing
    parts, masters = replica_sync_pairs(routing, np.fromiter(updated_vertices, dtype=np.int64))
    executor_of = cluster.executor_map(routing.num_partitions)
    remote = int((executor_of[parts] != executor_of[masters]).sum())
    sync_units = np.bincount(parts, minlength=len(partition_units))
    for partition in np.flatnonzero(sync_units).tolist():
        partition_units[partition] += _SYNC_APPLY_UNITS * int(sync_units[partition])
    return remote, int(parts.size) - remote


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------
@st.composite
def multigraphs(draw):
    """Sparse ids, duplicate edges, self-loops and isolated vertices."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=24, unique=True))
    endpoint = st.sampled_from(ids[: max(2, len(ids) - draw(st.integers(0, 3)))])
    edges = draw(st.lists(st.tuples(endpoint, endpoint), min_size=0, max_size=80))
    return Graph.from_edges(edges, vertices=ids, name="hypothesis")


def _kernel_and_state(name, graph):
    """``(kernel, dense initial state, always_active)`` as the algorithm
    modules set them up."""
    ids = graph.vertex_ids
    if name == "PR":
        return PageRankKernel(0.15, graph.out_degree_array()), np.ones(ids.size), True
    if name == "CC":
        return ConnectedComponentsKernel(), ids.copy(), False
    if name == "SSSP":
        landmarks = ids.tolist()[:3]
        state = np.full((ids.size, len(landmarks)), np.inf)
        state[np.arange(len(landmarks)), np.arange(len(landmarks))] = 0.0
        return ShortestPathsKernel(landmarks), state, False
    return DegreeKernel("both"), None, True


@SETTINGS
@given(
    graph=multigraphs(),
    partitioner=st.sampled_from(available_partitioners()),
    num_partitions=st.integers(1, 9),
    algorithm=st.sampled_from(["PR", "CC", "SSSP", "DEG"]),
    active_direction=st.sampled_from(["either", "out", "in", "both"]),
    num_executors=st.integers(1, 4),
)
def test_slot_plan_equals_the_sort_based_fold_every_superstep(
    graph, partitioner, num_partitions, algorithm, active_direction, num_executors
):
    pgraph = PartitionedGraph.partition(graph, partitioner, num_partitions)
    trip = pgraph.triplets()
    executor_of = ClusterConfig(num_executors=num_executors).executor_map(num_partitions)
    kernel, state, always_active = _kernel_and_state(algorithm, graph)
    scan = triplet_scan(trip, kernel, executor_of, active_direction, always_active)
    active = np.ones(trip.num_vertices, dtype=bool)
    for _ in range(1 if algorithm == "DEG" else 6):
        expected = oracle_scan(
            trip, kernel, executor_of, active_direction, always_active, active, state
        )
        targets, merged, scanned, slots, remote, local = scan(active, state)
        assert np.array_equal(targets, expected[0])
        assert merged.dtype == expected[1].dtype
        assert merged.tobytes() == expected[1].tobytes()
        assert np.array_equal(scanned, expected[2])
        assert np.array_equal(slots, expected[3])
        assert (remote, local) == expected[4:]
        if algorithm == "DEG" or not targets.size and not always_active:
            break
        if always_active:
            state = kernel.apply_messages_all(state, targets, merged)
        else:
            state = kernel.apply_messages(state, targets, merged)
            active = np.zeros(trip.num_vertices, dtype=bool)
            active[targets] = True


def test_slots_are_partition_major_and_vertex_ascending():
    graph = Graph([4, 4, 4, 9, 9, 2, 30], [7, 7, 4, 2, 2, 9, 30], vertices=[1, 100])
    pgraph = PartitionedGraph.partition(graph, "RVC", 3)
    trip = pgraph.triplets()
    src_slot, dst_slot = trip.endpoint_slot[0::2], trip.endpoint_slot[1::2]
    for pid in range(3):
        mirrors = trip.slot_vertex[trip.slot_bounds[pid]:trip.slot_bounds[pid + 1]]
        edges = slice(trip.edge_bounds[pid], trip.edge_bounds[pid + 1])
        endpoints = np.concatenate([trip.src[edges], trip.dst[edges]])
        assert mirrors.tolist() == sorted(set(endpoints.tolist()))
        for slots in (src_slot[edges], dst_slot[edges]):
            assert ((trip.slot_bounds[pid] <= slots) & (slots < trip.slot_bounds[pid + 1])).all()
    assert np.array_equal(trip.slot_vertex[src_slot], trip.src)
    assert np.array_equal(trip.slot_vertex[dst_slot], trip.dst)
    assert trip.endpoint_slot.dtype == trip.slot_vertex.dtype == np.int32


class _StrayKernel(ConnectedComponentsKernel):
    """Messages a vertex that is no endpoint of the scanned triplet."""

    def send_message_array(self, src_idx, dst_idx, state):
        positions = np.arange(src_idx.size)
        return positions, (dst_idx + 1) % state.size, state[src_idx]


@pytest.mark.parametrize("scan", ["in-process", "stream"])
def test_messaging_a_non_endpoint_is_a_named_error(scan, small_social_graph, tmp_path):
    # Both scans pick the endpoint through ``messaging.message_slots``.
    if scan == "stream":
        pgraph, _ = ingest_source(
            ArtifactStore(tmp_path / "store"),
            GraphChunkSource(small_social_graph, chunk_edges=64),
            "2D",
            4,
            chunk_edges=64,
        )
        assert pgraph.stream_supersteps
    else:
        pgraph = PartitionedGraph.partition(small_social_graph, "2D", 4)
    values = small_social_graph.vertex_ids.copy()
    with pytest.raises(EngineError, match="not an endpoint of their triplet"):
        pregel(
            pgraph, values, None, None, None, None,
            max_iterations=2, message_kernel=_StrayKernel(),
        )
    with pytest.raises(EngineError, match="_StrayKernel.send_message_array"):
        aggregate_messages(pgraph, values, None, None, message_kernel=_StrayKernel())


@SETTINGS
@given(
    graph=multigraphs(),
    partitioner=st.sampled_from(available_partitioners()),
    num_partitions=st.integers(1, 9),
    num_executors=st.integers(1, 4),
    data=st.data(),
)
def test_broadcast_plan_equals_broadcast_updates(
    graph, partitioner, num_partitions, num_executors, data
):
    pgraph = PartitionedGraph.partition(graph, partitioner, num_partitions)
    cluster = ClusterConfig(num_executors=num_executors)
    plan = pgraph.routing.broadcast_plan(cluster.executor_map(num_partitions))
    ids = graph.vertex_ids
    subset = data.draw(st.lists(st.integers(0, ids.size - 1), unique=True))
    for target_idx in (np.array(sorted(subset), dtype=np.int64), np.arange(ids.size)):
        start = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 7.5]),
                                   min_size=num_partitions, max_size=num_partitions))
        expected_units = list(start)
        expected = oracle_broadcast(pgraph, cluster, ids[target_idx].tolist(), expected_units)
        units = np.array(start)
        assert _broadcast_dense(plan, target_idx, units) == expected
        assert units.tolist() == expected_units
        # The scalar loop's adapter: a unit list, and ids in any order, some
        # of them (extra ``initial_values`` keys) not in the graph at all.
        scalar_units = list(start)
        shuffled = ids[target_idx].tolist()[::-1] + [10**6 + 1, -5]
        assert _broadcast_updates(pgraph, cluster, shuffled, scalar_units) == expected
        assert scalar_units == expected_units


def test_static_masks_follow_the_executor_map(small_social_graph):
    """The executor-dependent statics are kept per executor map, not per run."""
    pgraph = PartitionedGraph.partition(small_social_graph, "RVC", 6)
    trip, routing = pgraph.triplets(), pgraph.routing
    four = paper_cluster().executor_map(6)
    two = ClusterConfig(num_executors=2).executor_map(6)
    assert trip.remote_slots(four) is trip.remote_slots(four)
    assert routing.broadcast_plan(four)[2] is routing.broadcast_plan(four)[2]
    assert routing.broadcast_plan(four)[1] is routing.broadcast_plan(two)[1]
    slot_pid = np.repeat(np.arange(6), np.diff(trip.slot_bounds))
    masters = trip.master_of[trip.slot_vertex]
    assert np.array_equal(trip.slot_shipped, masters != slot_pid)
    for executor_of in (two, four):
        assert np.array_equal(
            trip.remote_slots(executor_of),
            trip.slot_shipped & (executor_of[slot_pid] != executor_of[masters]),
        )
