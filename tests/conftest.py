"""Shared fixtures for the test suite.

All fixtures build *small* graphs so the full suite stays fast; the
benchmark harness under ``benchmarks/`` is where the paper-scale sweeps
live.
"""

from __future__ import annotations

import gc
import glob
import os

import pytest

from repro.core.graph import Graph
from repro.datasets.generators import ring_of_cliques, road_network, social_graph
from repro.engine.cluster import ClusterConfig
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.shm_registry import SEGMENT_PREFIX


@pytest.fixture(scope="session", autouse=True)
def shared_memory_leak_guard():
    """Fail the session if any test leaks a shared-memory segment.

    Every segment the parallel Pregel stack creates is named with the
    ``repro-shm`` prefix and its creator's pid; once the graphs (and
    therefore their executors) tested here are collected, no segment of
    this process may remain in /dev/shm.  Other processes' segments (a
    second test run on the same host) are theirs to clean up.
    """
    yield
    # Executors are torn down by weakref.finalize when their graph is
    # collected; break any lingering reference cycles first.
    gc.collect()
    leaked = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*")
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture
def triangle_graph() -> Graph:
    """A single directed triangle 0 -> 1 -> 2 -> 0."""
    return Graph([0, 1, 2], [1, 2, 0], name="triangle")


@pytest.fixture
def two_component_graph() -> Graph:
    """Two disjoint undirected paths: {0,1,2} and {10,11}."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (10, 11), (11, 10)]
    return Graph.from_edges(edges, name="two-components")


@pytest.fixture
def small_social_graph() -> Graph:
    """A small deterministic power-law style directed graph."""
    return social_graph(
        num_vertices=120,
        num_edges=700,
        exponent=2.3,
        reciprocity=0.4,
        triadic_closure=0.3,
        connect=True,
        seed=11,
        name="small-social",
    )


@pytest.fixture
def small_road_graph() -> Graph:
    """A small two-component grid with id locality."""
    return road_network(rows=6, cols=6, num_components=2, diagonal_prob=0.05, seed=3, name="small-road")


@pytest.fixture
def clique_ring_graph() -> Graph:
    """Four 5-cliques connected in a ring (lots of triangles, one component)."""
    return ring_of_cliques(num_cliques=4, clique_size=5, seed=1)


@pytest.fixture
def small_cluster() -> ClusterConfig:
    """A small simulated cluster (2 executors x 4 cores) used in engine tests."""
    return ClusterConfig(num_executors=2, cores_per_executor=4, network_gbps=1.0, storage="hdd", name="test")


@pytest.fixture
def partitioned_social(small_social_graph) -> PartitionedGraph:
    """The small social graph partitioned with CRVC into 8 parts."""
    return PartitionedGraph.partition(small_social_graph, "CRVC", 8)
