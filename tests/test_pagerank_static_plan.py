"""PageRank's static message plan against planning every superstep.

``PageRankKernel`` has a static message structure, so the in-process scan
asks it once per run for ``static_messages`` (positions, targets and a
``send(state)``) and afterwards only sends.  ``PlanEverySuperstep`` turns
the flag off, which sends through ``send_message_array`` and rebuilds the
fold plan on every superstep.  The two must agree byte for byte, on the
values and on every superstep record.
"""

import importlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import PageRankKernel, pagerank
from repro.core.graph import Graph
from repro.engine.cluster import paper_cluster
from repro.engine.messaging import triplet_scan
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import aggregate_messages, pregel
from repro.partitioning.registry import available_partitioners

# ``repro.algorithms.pagerank`` names the function once the package is imported.
pagerank_module = importlib.import_module("repro.algorithms.pagerank")

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class PlanEverySuperstep(PageRankKernel):
    """PageRank without the static plan: send and plan every superstep."""

    static_message_structure = False


class CountingKernel(PageRankKernel):
    """PageRank that counts its ``static_messages`` calls."""

    def __init__(self, reset_prob, degrees):
        super().__init__(reset_prob, degrees)
        self.plans = 0

    def static_messages(self, src_idx, dst_idx):
        self.plans += 1
        return super().static_messages(src_idx, dst_idx)


@st.composite
def graphs(draw):
    """Sparse ids, duplicate edges, self-loops, dangling and isolated
    vertices, and edgeless graphs."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=24, unique=True))
    endpoint = st.sampled_from(ids[: max(1, len(ids) - draw(st.integers(0, 3)))])
    edges = draw(st.lists(st.tuples(endpoint, endpoint), min_size=0, max_size=80))
    return Graph.from_edges(edges, vertices=ids, name="hypothesis")


CORNER_GRAPHS = {
    "edgeless": Graph.from_edges([], vertices=[3, 7, 11], name="edgeless"),
    "self-loops": Graph.from_edges([(1, 1), (2, 2), (2, 2)], vertices=[1, 2, 5], name="loops"),
    "dangling": Graph.from_edges([(0, 1), (0, 2), (2, 1), (4, 4)], name="dangling"),
}


def run_both(pgraph, **options):
    """``pagerank()`` with the shipped kernel and with the per-superstep one."""
    static = pagerank(pgraph, **options)
    with mock.patch.object(pagerank_module, "PageRankKernel", PlanEverySuperstep):
        dynamic = pagerank(pgraph, **options)
    return static, dynamic


def assert_same_run(static, dynamic):
    assert static.values.dtype == dynamic.values.dtype
    assert static.values.tobytes() == dynamic.values.tobytes()
    assert static.report.supersteps == dynamic.report.supersteps
    assert static.num_supersteps == dynamic.num_supersteps


def assert_same_aggregate(pgraph, state):
    degrees = pgraph.graph.out_degree_array()
    outputs = [
        aggregate_messages(pgraph, state, message_kernel=kernel(0.15, degrees))
        for kernel in (PageRankKernel, PlanEverySuperstep)
    ]
    ((static_targets, static_merged), static_report) = outputs[0]
    ((dynamic_targets, dynamic_merged), dynamic_report) = outputs[1]
    assert np.array_equal(static_targets, dynamic_targets)
    assert static_merged.tobytes() == dynamic_merged.tobytes()
    assert static_report.supersteps == dynamic_report.supersteps


@SETTINGS
@given(
    graph=graphs(),
    partitioner=st.sampled_from(available_partitioners()),
    num_partitions=st.integers(1, 16),
    iterations=st.integers(1, 12),
    reset_prob=st.sampled_from([0.15, 0.5, 0.01]),
    seed=st.integers(0, 2**16),
)
def test_static_plan_equals_planning_every_superstep(
    graph, partitioner, num_partitions, iterations, reset_prob, seed
):
    pgraph = PartitionedGraph.partition(graph, partitioner, num_partitions)
    static, dynamic = run_both(pgraph, num_iterations=iterations, reset_prob=reset_prob)
    assert_same_run(static, dynamic)
    state = np.random.default_rng(seed).random(graph.num_vertices)
    assert_same_aggregate(pgraph, state)


@pytest.mark.parametrize("name", sorted(CORNER_GRAPHS))
@pytest.mark.parametrize("partitioner", available_partitioners())
def test_corner_graphs_take_the_same_path_either_way(name, partitioner):
    graph = CORNER_GRAPHS[name]
    for num_partitions in (1, 4):
        pgraph = PartitionedGraph.partition(graph, partitioner, num_partitions)
        assert_same_run(*run_both(pgraph, num_iterations=5))
        assert_same_aggregate(pgraph, np.arange(graph.num_vertices, dtype=np.float64))


# ----------------------------------------------------------------------
# The plan is built once per run and belongs to its scan.
# ----------------------------------------------------------------------
@pytest.fixture
def pgraph(small_social_graph):
    return PartitionedGraph.partition(small_social_graph, "2D", 8)


def test_the_plan_is_built_once_per_pregel_run(pgraph):
    kernel = CountingKernel(0.15, pgraph.graph.out_degree_array())
    for runs in (1, 2):
        result = pregel(
            pgraph,
            initial_values=np.ones(pgraph.graph.num_vertices),
            max_iterations=20,
            active_direction="either",
            always_active=True,
            message_kernel=kernel,
        )
        assert result.num_supersteps == 21
        assert kernel.plans == runs


def test_the_entry_point_builds_one_plan_per_run(pgraph):
    built = []

    class Recording(CountingKernel):
        def __init__(self, reset_prob, degrees):
            super().__init__(reset_prob, degrees)
            built.append(self)

    with mock.patch.object(pagerank_module, "PageRankKernel", Recording):
        pagerank(pgraph, num_iterations=20)
        pagerank(pgraph, num_iterations=20)
    assert [kernel.plans for kernel in built] == [1, 1]


def _step(scan, kernel, state):
    output = scan(None, state)
    return kernel.apply_messages_all(state, output[0], output[1]), output


def test_interleaved_scans_on_one_placement_match_their_solo_runs(pgraph):
    trip = pgraph.triplets()
    executor_of = paper_cluster().executor_map(pgraph.num_partitions)
    degrees = pgraph.graph.out_degree_array()
    ones = np.ones(pgraph.graph.num_vertices)

    solo = {}
    for reset_prob in (0.15, 0.4):
        kernel = PageRankKernel(reset_prob, degrees)
        scan = triplet_scan(trip, kernel, executor_of, "either", True)
        state, outputs = ones, []
        for _ in range(8):
            state, output = _step(scan, kernel, state)
            outputs.append(output)
        solo[reset_prob] = state, outputs

    kernels = {p: PageRankKernel(p, degrees) for p in solo}
    scans = {p: triplet_scan(trip, kernels[p], executor_of, "either", True) for p in solo}
    states = {p: ones for p in solo}
    for superstep in range(8):
        for reset_prob in solo:
            states[reset_prob], output = _step(
                scans[reset_prob], kernels[reset_prob], states[reset_prob]
            )
            expected = solo[reset_prob][1][superstep]
            assert output[0].tobytes() == expected[0].tobytes()
            assert output[1].tobytes() == expected[1].tobytes()
            for got, want in zip(output[2:], expected[2:]):
                assert np.array_equal(got, want)
    for reset_prob, (state, _) in solo.items():
        assert states[reset_prob].tobytes() == state.tobytes()
    assert states[0.15].tobytes() != states[0.4].tobytes()


def test_each_scan_builds_its_own_plan(pgraph):
    trip = pgraph.triplets()
    executor_of = paper_cluster().executor_map(pgraph.num_partitions)
    kernel = CountingKernel(0.15, pgraph.graph.out_degree_array())
    state = np.ones(pgraph.graph.num_vertices)
    first = triplet_scan(trip, kernel, executor_of, "either", True)
    second = triplet_scan(trip, kernel, executor_of, "either", True)
    assert kernel.plans == 0
    for _ in range(3):
        first(None, state)
        second(None, state)
    assert kernel.plans == 2


# ----------------------------------------------------------------------
# The vertex-side division sends the edge-side quotients.
# ----------------------------------------------------------------------
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 1e300, 1.0, 0.15,
]


@SETTINGS
@given(
    degrees=st.lists(st.integers(0, 2**40), min_size=1, max_size=16),
    data=st.data(),
)
def test_send_matches_send_message_array_on_extreme_states(degrees, data):
    degrees = np.array(degrees + [0], dtype=np.int64)
    size = degrees.size
    edge = st.integers(0, size - 1)
    pairs = data.draw(st.lists(st.tuples(edge, edge), min_size=0, max_size=40))
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    value = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
    state = np.array(data.draw(st.lists(value, min_size=size, max_size=size)), dtype=np.float64)
    kernel = PageRankKernel(0.15, degrees)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        positions, targets, messages = kernel.send_message_array(src, dst, state)
        plan_positions, plan_targets, send = kernel.static_messages(src, dst)
        sent = send(state)
    assert np.array_equal(plan_positions, positions)
    assert np.array_equal(plan_targets, targets)
    assert sent.dtype == messages.dtype
    assert sent.tobytes() == messages.tobytes()
