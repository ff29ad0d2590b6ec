"""Dense results: an ``AlgorithmResult`` holds arrays and renders its dict lazily.

Every entry point and the ``vectorized`` backend return ``vertex_ids`` and
``values`` (plus ``columns`` for a landmark sweep).  ``vertex_values`` is
built on first read only, and is the dict the library has always returned:
keys in vertex order, plain Python ``float``/``int`` values, and landmark
maps keyed in landmark order.
"""

import numpy as np
import pytest

from repro.algorithms.connected_components import connected_components
from repro.algorithms.degrees import degree_count
from repro.algorithms.pagerank import pagerank
from repro.algorithms.registry import run_algorithm
from repro.algorithms.shortest_paths import multi_source_distances, shortest_paths
from repro.algorithms.triangle_count import triangle_count
from repro.backends import get_backend
from repro.core.graph import Graph
from repro.engine.partitioned_graph import PartitionedGraph


def _landmarks(pgraph):
    """Three landmarks out of id order, so map key order is observable."""
    ids = pgraph.graph.vertex_ids.tolist()
    return list(dict.fromkeys([ids[-1], ids[0], ids[len(ids) // 2]]))


ENTRY_POINTS = {
    "PR": (lambda pgraph: pagerank(pgraph, num_iterations=3), float),
    "CC": (connected_components, int),
    "SSSP": (lambda pgraph: shortest_paths(pgraph, _landmarks(pgraph)), dict),
    "multi-source": (
        lambda pgraph: multi_source_distances(pgraph, _landmarks(pgraph)),
        dict,
    ),
    "degrees": (lambda pgraph: degree_count(pgraph, direction="both"), int),
    "TR": (triangle_count, int),
}

VECTORIZED = {
    "PR": (lambda pgraph: run_algorithm("PR", pgraph, backend="vectorized"), float),
    "CC": (lambda pgraph: run_algorithm("CC", pgraph, backend="vectorized"), int),
    "SSSP": (
        lambda pgraph: run_algorithm(
            "SSSP", pgraph, landmarks=_landmarks(pgraph), backend="vectorized"
        ),
        dict,
    ),
    "TR": (lambda pgraph: run_algorithm("TR", pgraph, backend="vectorized"), int),
    "degrees": (lambda pgraph: get_backend("vectorized").degrees(pgraph, "both"), int),
}

RUNS = [("entry", name, *run) for name, run in ENTRY_POINTS.items()] + [
    ("vectorized", name, *run) for name, run in VECTORIZED.items()
]


@pytest.fixture(params=["social", "isolated"])
def pgraph(request, small_social_graph):
    graph = (
        small_social_graph
        if request.param == "social"
        else Graph([1, 2, 2], [2, 3, 1], vertices=[100, 200])
    )
    return PartitionedGraph.partition(graph, "2D", 4)


@pytest.mark.parametrize(
    "path, name, run, value_type", RUNS, ids=[f"{path}-{name}" for path, name, *_ in RUNS]
)
def test_vertex_values_is_built_lazily_in_the_seed_form(pgraph, path, name, run, value_type):
    result = run(pgraph)
    assert "vertex_values" not in vars(result)
    assert np.array_equal(result.vertex_ids, pgraph.graph.vertex_ids)
    assert len(result.values) == pgraph.graph.num_vertices

    values = result.vertex_values
    assert "vertex_values" in vars(result)
    assert result.vertex_values is values
    assert list(values) == pgraph.graph.vertex_ids.tolist()
    assert all(type(vertex) is int for vertex in values)
    assert all(type(value) is value_type for value in values.values())
    if value_type is dict:
        # Row i of the hop matrix, reached columns only, in landmark order.
        landmarks = _landmarks(pgraph)
        assert result.columns == landmarks
        for distances, row in zip(values.values(), result.values.tolist()):
            reached = [(l, int(h)) for l, h in zip(landmarks, row) if h != float("inf")]
            assert list(distances.items()) == reached
            assert all(type(hops) is int for hops in distances.values())


@pytest.mark.parametrize("name", ["PR", "CC", "SSSP", "TR"])
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_run_algorithm_results_leave_the_dict_unbuilt(name, backend, partitioned_social):
    result = run_algorithm(name, partitioned_social, num_iterations=3, backend=backend)
    assert result.backend == backend
    assert "vertex_values" not in vars(result)


def test_triangle_results_share_the_read_only_cache(partitioned_social):
    first, second = triangle_count(partitioned_social), triangle_count(partitioned_social)
    assert first.values is second.values
    assert not first.values.flags.writeable
    first.vertex_values.clear()
    assert second.vertex_values == dict(
        zip(second.vertex_ids.tolist(), second.values.tolist())
    )
