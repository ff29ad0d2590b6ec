"""Unit tests for the Pregel loop and the aggregate_messages primitive."""

import numpy as np
import pytest

from repro.algorithms.connected_components import ConnectedComponentsKernel
from repro.core.graph import Graph
from repro.engine.cluster import ClusterConfig
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import aggregate_messages, pregel
from repro.errors import EngineError

NAN, INF = float("nan"), float("inf")


def _chain_graph(length=5):
    """Directed chain 0 -> 1 -> ... -> length."""
    return Graph(list(range(length)), list(range(1, length + 1)), name="chain")


def _pgraph(graph, num_partitions=4, strategy="RVC"):
    return PartitionedGraph.partition(graph, strategy, num_partitions)


def _min_propagation(pgraph, max_iterations=50, **kwargs):
    """Propagate the minimum vertex id along edges in both directions."""
    values = {int(v): int(v) for v in pgraph.graph.vertex_ids.tolist()}

    def vertex_program(vertex, value, message):
        if message is None:
            return value
        return min(value, message)

    def send_message(src, src_value, dst, dst_value):
        out = []
        if src_value < dst_value:
            out.append((dst, src_value))
        if dst_value < src_value:
            out.append((src, dst_value))
        return out

    return pregel(
        pgraph,
        initial_values=values,
        initial_message=None,
        vertex_program=vertex_program,
        send_message=send_message,
        merge_message=min,
        max_iterations=max_iterations,
        **kwargs,
    )


class TestPregelCorrectness:
    def test_min_propagation_converges_on_chain(self):
        pgraph = _pgraph(_chain_graph(6))
        result = _min_propagation(pgraph)
        assert set(result.vertex_values.values()) == {0}

    def test_min_propagation_respects_components(self, two_component_graph):
        pgraph = _pgraph(two_component_graph, num_partitions=3)
        result = _min_propagation(pgraph)
        assert result.vertex_values[2] == 0
        assert result.vertex_values[11] == 10

    def test_result_is_partitioning_invariant(self, small_social_graph):
        results = []
        for strategy in ("RVC", "2D", "DC"):
            pgraph = _pgraph(small_social_graph, num_partitions=8, strategy=strategy)
            results.append(_min_propagation(pgraph).vertex_values)
        assert results[0] == results[1] == results[2]

    def test_max_iterations_caps_supersteps(self):
        pgraph = _pgraph(_chain_graph(30), num_partitions=2)
        capped = _min_propagation(pgraph, max_iterations=3)
        # Superstep 0 plus at most 3 message rounds.
        assert capped.num_supersteps <= 4
        assert capped.vertex_values[30] != 0  # not yet converged

    def test_zero_max_iterations_runs_only_superstep_zero(self):
        pgraph = _pgraph(_chain_graph(3), num_partitions=2)
        result = _min_propagation(pgraph, max_iterations=0)
        assert result.num_supersteps == 1
        assert result.vertex_values == {0: 0, 1: 1, 2: 2, 3: 3}


class TestPregelValidation:
    def test_missing_initial_values_rejected(self):
        pgraph = _pgraph(_chain_graph(3))
        with pytest.raises(EngineError, match="missing"):
            pregel(
                pgraph,
                initial_values={0: 0},
                initial_message=None,
                vertex_program=lambda v, val, msg: val,
                send_message=lambda s, sv, d, dv: (),
                merge_message=min,
            )

    def test_bad_active_direction_rejected(self):
        pgraph = _pgraph(_chain_graph(3))
        with pytest.raises(EngineError, match="active_direction"):
            _min_propagation(pgraph, active_direction="diagonal")

    def test_negative_max_iterations_rejected(self):
        pgraph = _pgraph(_chain_graph(3))
        with pytest.raises(EngineError):
            _min_propagation(pgraph, max_iterations=-1)

    @pytest.mark.parametrize("count", [NAN, INF, -INF, 2.5, True])
    def test_non_integral_max_iterations_rejected(self, count):
        # nan used to stop after superstep 0, inf never to stop and 2.5 to
        # run three supersteps; each is now a named error on both loops.
        pgraph = _pgraph(_chain_graph(3))
        with pytest.raises(EngineError, match="max_iterations must be an integer"):
            _min_propagation(pgraph, max_iterations=count)
        with pytest.raises(EngineError, match="max_iterations must be an integer"):
            pregel(
                pgraph,
                pgraph.graph.vertex_ids.copy(),
                max_iterations=count,
                message_kernel=ConnectedComponentsKernel(),
            )

    def test_kernel_state_must_cover_every_vertex(self):
        pgraph = _pgraph(_chain_graph(3))
        with pytest.raises(EngineError, match="3 rows for 4 vertices"):
            pregel(pgraph, np.arange(3), message_kernel=ConnectedComponentsKernel())

    def test_unknown_message_target_raises_engine_error(self):
        # A send_message that addresses a vertex id outside the graph must
        # fail with a named EngineError, not a bare KeyError from the
        # routing table.
        pgraph = _pgraph(_chain_graph(3), num_partitions=2)
        values = {int(v): int(v) for v in pgraph.graph.vertex_ids.tolist()}
        with pytest.raises(EngineError, match=r"unknown vertex 999.*partition"):
            pregel(
                pgraph,
                initial_values=values,
                initial_message=None,
                vertex_program=lambda v, val, msg: val,
                send_message=lambda s, sv, d, dv: ((999, 1),),
                merge_message=min,
            )

    def test_unknown_target_in_aggregate_messages_raises(self):
        pgraph = _pgraph(_chain_graph(3), num_partitions=2)
        values = {int(v): 0 for v in pgraph.graph.vertex_ids.tolist()}
        with pytest.raises(EngineError, match="unknown vertex"):
            aggregate_messages(
                pgraph,
                vertex_values=values,
                send_message=lambda s, sv, d, dv: ((-5, 1),),
                merge_message=lambda a, b: a + b,
            )


    def test_missing_callbacks_without_kernel_rejected(self):
        # The callbacks are optional only because a kernel replaces them;
        # the scalar loop names the omission instead of calling None.
        pgraph = _pgraph(_chain_graph(3), num_partitions=2)
        values = {int(v): 0 for v in pgraph.graph.vertex_ids.tolist()}
        with pytest.raises(EngineError, match="message_kernel"):
            pregel(pgraph, initial_values=values, vertex_program=lambda v, val, msg: val)
        with pytest.raises(EngineError, match="message_kernel"):
            aggregate_messages(pgraph, vertex_values=values, send_message=lambda *a: ())


class TestPregelAccounting:
    def test_report_contains_supersteps_and_messages(self, partitioned_social):
        result = _min_propagation(partitioned_social, max_iterations=5)
        report = result.report
        assert report.num_supersteps == result.num_supersteps
        assert report.total_messages > 0
        assert report.load_seconds > 0
        assert result.simulated_seconds == pytest.approx(report.total_seconds)
        # Superstep 0 never scans edges; later supersteps do.
        assert report.supersteps[0].edges_scanned == 0
        assert report.supersteps[1].edges_scanned > 0

    def test_active_set_shrinks_over_time(self, partitioned_social):
        result = _min_propagation(partitioned_social, max_iterations=30)
        actives = [record.active_vertices for record in result.report.supersteps]
        assert actives[0] >= actives[-1]
        assert actives[-1] <= partitioned_social.graph.num_vertices

    def test_always_active_runs_exactly_max_iterations(self, partitioned_social):
        result = _min_propagation(
            partitioned_social, max_iterations=4, always_active=True, default_message=None
        )
        assert result.num_supersteps == 5  # superstep 0 + 4 rounds

    def test_single_partition_has_no_remote_messages(self, small_social_graph):
        pgraph = PartitionedGraph.partition(small_social_graph, "RVC", 1)
        cluster = ClusterConfig(num_executors=1, cores_per_executor=4)
        result = _min_propagation(pgraph, cluster=cluster)
        assert result.report.total_remote_messages == 0

    def test_more_partitions_mean_more_sync_messages(self, small_social_graph):
        coarse = _min_propagation(_pgraph(small_social_graph, 2), max_iterations=5)
        fine = _min_propagation(_pgraph(small_social_graph, 32), max_iterations=5)
        assert fine.report.total_messages > coarse.report.total_messages


class TestAggregateMessages:
    def test_degree_aggregation_matches_graph_degrees(self, small_social_graph):
        pgraph = _pgraph(small_social_graph, 8)
        values = {int(v): None for v in small_social_graph.vertex_ids.tolist()}
        merged, report = aggregate_messages(
            pgraph,
            vertex_values=values,
            send_message=lambda s, sv, d, dv: ((d, 1),),
            merge_message=lambda a, b: a + b,
        )
        expected = {v: d for v, d in small_social_graph.in_degrees().items() if d > 0}
        assert merged == expected
        assert report.num_supersteps == 1
        assert report.supersteps[0].edges_scanned == small_social_graph.num_edges

    def test_existing_report_is_extended(self, partitioned_social):
        values = {int(v): None for v in partitioned_social.graph.vertex_ids.tolist()}
        _, report = aggregate_messages(
            partitioned_social,
            vertex_values=values,
            send_message=lambda s, sv, d, dv: ((d, 1),),
            merge_message=lambda a, b: a + b,
        )
        _, report2 = aggregate_messages(
            partitioned_social,
            vertex_values=values,
            send_message=lambda s, sv, d, dv: ((s, 1),),
            merge_message=lambda a, b: a + b,
            report=report,
        )
        assert report2 is report
        assert report.num_supersteps == 2
