"""Lifecycle, fallback and telemetry tests for the shared-memory parallel
Pregel executor (bit-identity itself is proven by the workers axis of
``test_pregel_array_equivalence.py``).

The leak tests pin down the hygiene contract of ``shm_registry``: no
orphan ``/dev/shm`` segment may survive a successful run, a worker
exception, or a SIGTERM — and a live executor keeps exactly its static
graph segments until its graph is collected.
"""

import contextlib
import gc
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankKernel, pagerank
from repro.algorithms.registry import run_algorithm
from repro.core.graph import Graph
from repro.engine.parallel import (
    ParallelPregelExecutor,
    engine_stats,
    parallel_supported,
    reset_engine_stats,
)
from repro.engine.partitioned_graph import PartitionedGraph
from repro.engine.pregel import pregel
from repro.engine.shm_registry import (
    SEGMENT_PREFIX,
    ShmRegistry,
    attach_array,
    live_segment_stats,
    shared_memory_available,
)
from repro.errors import AnalysisError, EngineError
from repro.session.session import Session

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="platform lacks POSIX shared memory"
)
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-side classes from the test module need the fork start method",
)


def _own_segments():
    """Names of this process's live /dev/shm segments."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*"))


def _make_pgraph(seed=0, vertices=80, edges=400, strategy="2D", parts=6):
    rng = np.random.default_rng(seed)
    graph = Graph(
        rng.integers(0, vertices, edges).tolist(),
        rng.integers(0, vertices, edges).tolist(),
    )
    return PartitionedGraph.partition(graph, strategy, parts)


# ----------------------------------------------------------------------
# ShmRegistry
# ----------------------------------------------------------------------
@needs_shm
class TestShmRegistry:
    def test_publish_attach_roundtrip(self):
        with ShmRegistry(label="test") as registry:
            payload = np.arange(12, dtype=np.float64).reshape(3, 4)
            registry.publish_array("grid", payload)
            shm, view = attach_array(registry.entry("grid"))
            try:
                assert view.shape == (3, 4)
                assert view.dtype == np.float64
                np.testing.assert_array_equal(view, payload)
                # Zero-copy: owner-side writes are visible through the view.
                registry.array("grid")[0, 0] = 99.0
                assert view[0, 0] == 99.0
            finally:
                shm.close()

    def test_publish_bytes_roundtrip(self):
        with ShmRegistry() as registry:
            registry.publish_bytes("blob", b"hello kernel")
            assert bytes(registry.array("blob").tobytes()) == b"hello kernel"
            assert registry.entry("blob")["kind"] == "bytes"

    def test_segments_unlinked_on_close(self):
        registry = ShmRegistry(label="cleanup")
        registry.create_array("a", (100,), np.int64)
        registry.publish_bytes("b", b"x")
        assert len(_own_segments()) >= 2
        assert registry.num_segments == 2
        assert registry.total_bytes >= 100 * 8
        registry.close()
        registry.close()  # idempotent
        assert _own_segments() == []
        assert live_segment_stats() == (0, 0)

    def test_close_on_exception_via_context_manager(self):
        with pytest.raises(RuntimeError):
            with ShmRegistry() as registry:
                registry.create_array("a", (10,), np.float64)
                raise RuntimeError("boom")
        assert _own_segments() == []

    def test_duplicate_key_rejected(self):
        with ShmRegistry() as registry:
            registry.create_array("a", (1,), np.int64)
            with pytest.raises(EngineError):
                registry.create_array("a", (1,), np.int64)

    def test_closed_registry_rejects_creates(self):
        registry = ShmRegistry()
        registry.close()
        with pytest.raises(EngineError):
            registry.create_array("late", (1,), np.int64)


# ----------------------------------------------------------------------
# Executor lifecycle
# ----------------------------------------------------------------------
@needs_shm
class TestExecutorLifecycle:
    def test_for_graph_caches_per_worker_count(self):
        pgraph = _make_pgraph(seed=1)
        two = ParallelPregelExecutor.for_graph(pgraph, 2)
        assert ParallelPregelExecutor.for_graph(pgraph, 2) is two
        four = ParallelPregelExecutor.for_graph(pgraph, 4)
        assert four is not two
        two.close()
        replacement = ParallelPregelExecutor.for_graph(pgraph, 2)
        assert replacement is not two and not replacement.closed
        replacement.close()
        four.close()

    def test_static_segments_live_with_executor_only(self):
        before = len(_own_segments())
        pgraph = _make_pgraph(seed=2)
        result = pagerank(pgraph, num_iterations=3, parallel_workers=2)
        assert result.num_supersteps == 4
        # Per-run segments are gone; the executor keeps src/dst/master_of.
        assert len(_own_segments()) == before + 3
        del pgraph
        gc.collect()  # weakref.finalize tears the executor down
        assert len(_own_segments()) == before

    def test_run_on_closed_executor_rejected(self):
        pgraph = _make_pgraph(seed=3)
        executor = ParallelPregelExecutor.for_graph(pgraph, 2)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(EngineError):
            with executor.scan(
                np.ones(pgraph.graph.num_vertices),
                PageRankKernel(0.15, pgraph.graph.out_degree_array()),
                np.zeros(pgraph.num_partitions, dtype=np.int64),
                "either",
                True,
            ):
                pytest.fail("a closed executor must refuse to start a run")

    def test_invalid_worker_counts_rejected(self):
        pgraph = _make_pgraph(seed=4)
        with pytest.raises(EngineError):
            ParallelPregelExecutor(pgraph, 0)
        with pytest.raises(EngineError):
            pagerank(pgraph, parallel_workers=0)

    def test_empty_graph_falls_back_to_serial(self):
        graph = Graph([], [], vertices=[1, 2, 3])
        pgraph = PartitionedGraph.partition(graph, "1D", 2)
        before = len(_own_segments())
        result = pagerank(pgraph, num_iterations=2, parallel_workers=4)
        assert len(_own_segments()) == before  # no executor was built
        assert result.vertex_values == pagerank(pgraph, num_iterations=2).vertex_values
        with pytest.raises(EngineError):
            ParallelPregelExecutor(pgraph, 2)

    def test_workers_one_is_serial(self):
        pgraph = _make_pgraph(seed=5)
        before = len(_own_segments())
        result = pagerank(pgraph, num_iterations=2, parallel_workers=1)
        assert len(_own_segments()) == before
        assert result.vertex_values == pagerank(pgraph, num_iterations=2).vertex_values


# ----------------------------------------------------------------------
# Leak behaviour on failure paths
# ----------------------------------------------------------------------
class ExplodingKernel(PageRankKernel):
    """A kernel whose worker-side compute raises mid-superstep."""

    def send_message_array(self, src_idx, dst_idx, state):
        raise RuntimeError("kernel exploded in the worker")


@needs_shm
@needs_fork
def test_no_leak_after_worker_exception():
    pgraph = _make_pgraph(seed=6)
    before = len(_own_segments())
    with pytest.raises(RuntimeError, match="kernel exploded"):
        pregel(
            pgraph,
            initial_values=np.ones(pgraph.graph.num_vertices),
            initial_message=None,
            vertex_program=lambda v, value, message: value,
            send_message=lambda s, sv, d, dv: (),
            merge_message=lambda a, b: a + b,
            max_iterations=3,
            always_active=True,
            default_message=0.0,
            message_kernel=ExplodingKernel(0.15, pgraph.graph.out_degree_array()),
            parallel_workers=2,
        )
    # All per-run segments were unlinked by the finally; only the
    # executor's three static segments remain until the graph dies.
    assert len(_own_segments()) == before + 3
    del pgraph
    gc.collect()
    assert len(_own_segments()) == before


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_shm
@needs_fork
def test_no_leak_after_sigterm():
    script = textwrap.dedent(
        """
        import time
        from multiprocessing import resource_tracker
        import numpy as np
        from repro.core.graph import Graph
        from repro.engine.parallel import ParallelPregelExecutor
        from repro.engine.partitioned_graph import PartitionedGraph
        from repro.algorithms.pagerank import pagerank

        rng = np.random.default_rng(1)
        graph = Graph(rng.integers(0, 60, 240).tolist(), rng.integers(0, 60, 240).tolist())
        pgraph = PartitionedGraph.partition(graph, "1D", 4)
        pagerank(pgraph, num_iterations=2, parallel_workers=2)
        print("READY", flush=True)
        workers = ParallelPregelExecutor.for_graph(pgraph, 2)._pool._processes
        print(*workers, resource_tracker._resource_tracker._pid, flush=True)
        time.sleep(30)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    children = []
    try:
        assert proc.stdout.readline().strip() == "READY", proc.stderr.read()
        children = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(children) == 3, "two pool workers and the resource tracker"
        pattern = f"/dev/shm/{SEGMENT_PREFIX}-{proc.pid}-*"
        assert glob.glob(pattern), "executor should hold live static segments"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=15)
        deadline = time.monotonic() + 5.0
        while (glob.glob(pattern) or any(map(_running, children))) and (
            time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert glob.glob(pattern) == [], "SIGTERM handler must unlink segments"
        orphans = [pid for pid in children if _running(pid)]
        assert orphans == [], "SIGTERM handler must stop the pool workers"
    finally:
        if proc.poll() is None:  # pragma: no cover - only on assertion failure
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        for pid in filter(_running, children):  # pragma: no cover - likewise
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@needs_shm
def test_killed_worker_is_a_named_error_and_the_pool_is_rebuilt():
    before = len(_own_segments())
    pgraph = _make_pgraph(seed=10)
    serial = pagerank(pgraph, num_iterations=3)
    pagerank(pgraph, num_iterations=3, parallel_workers=2)
    executors = [ParallelPregelExecutor.for_graph(pgraph, 2)]
    try:
        broken = executors[0]
        victim = next(iter(broken._pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        assert not victim.is_alive()

        with pytest.raises(EngineError, match="pool died"):
            pagerank(pgraph, num_iterations=3, parallel_workers=2)
        # The dead pool took its executor (and every segment) down with it ...
        assert broken.closed
        assert len(_own_segments()) == before
        # ... so the next run gets a fresh one and is bit-identical to serial.
        rebuilt = pagerank(pgraph, num_iterations=3, parallel_workers=2)
        executors.append(ParallelPregelExecutor.for_graph(pgraph, 2))
        assert executors[-1] is not broken
        assert rebuilt.vertex_values == serial.vertex_values
        assert rebuilt.report.supersteps == serial.report.supersteps
    except BaseException:
        # The traceback keeps pgraph alive, so its finalizer would leave the
        # src, dst and master-of segments to the session's leak check.
        for executor in executors:
            executor.close()
        raise
    # On success the rebuilt pool is released by collecting its graph.
    del pgraph
    gc.collect()
    assert len(_own_segments()) == before


# ----------------------------------------------------------------------
# Telemetry and plumbing
# ----------------------------------------------------------------------
@needs_shm
def test_engine_stats_counts_runs_and_supersteps():
    reset_engine_stats()
    pgraph = _make_pgraph(seed=7)
    pagerank(pgraph, num_iterations=3, parallel_workers=2)
    stats = engine_stats()
    assert stats["runs"] == 1
    assert stats["supersteps"]["parallel"] == 3  # always-active: all fan out
    assert stats["supersteps"]["parallel_fraction"] == 1.0
    assert stats["executors"] >= 1
    assert stats["workers"] >= 2
    assert stats["shared_memory"]["segments"] >= 3
    assert stats["shared_memory"]["bytes"] > 0
    reset_engine_stats()


@needs_shm
def test_min_active_threshold_keeps_small_frontiers_serial(monkeypatch):
    # Data-driven CC on an 80-vertex graph never reaches the production
    # threshold, so every superstep takes the in-parent serial branch.
    from repro.algorithms.connected_components import connected_components

    monkeypatch.delenv("REPRO_PARALLEL_MIN_ACTIVE", raising=False)
    reset_engine_stats()
    pgraph = _make_pgraph(seed=8)
    connected_components(pgraph, parallel_workers=2)
    stats = engine_stats()
    assert stats["runs"] == 1
    assert stats["supersteps"]["parallel"] == 0
    assert stats["supersteps"]["serial"] > 0
    reset_engine_stats()


def test_min_active_env_override_parses_garbage(monkeypatch):
    from repro.engine.parallel import _DEFAULT_MIN_PARALLEL_ACTIVE, _min_parallel_active

    monkeypatch.setenv("REPRO_PARALLEL_MIN_ACTIVE", "not-a-number")
    assert _min_parallel_active() == _DEFAULT_MIN_PARALLEL_ACTIVE
    monkeypatch.setenv("REPRO_PARALLEL_MIN_ACTIVE", "0")
    assert _min_parallel_active() == 0


@needs_shm
def test_run_algorithm_engine_workers_identical():
    pgraph = _make_pgraph(seed=9)
    for name in ("PR", "CC", "SSSP"):
        serial = run_algorithm(name, pgraph, num_iterations=4)
        parallel = run_algorithm(name, pgraph, num_iterations=4, engine_workers=2)
        assert serial.vertex_values == parallel.vertex_values
        assert serial.report.supersteps == parallel.report.supersteps
    # TR has no Pregel superstep loop; engine_workers is accepted and ignored.
    assert (
        run_algorithm("TR", pgraph, engine_workers=2).vertex_values
        == run_algorithm("TR", pgraph).vertex_values
    )


def test_plan_validates_engine_workers():
    plan = Session().plan()
    with pytest.raises(AnalysisError):
        plan.engine_workers(0)
    assert plan.engine_workers(2)._engine_workers == 2


def test_engine_workers_not_part_of_record_identity(small_social_graph):
    # Parallel execution is bit-identical, so cached records must be shared
    # between serial and parallel plans: the store key may not change.
    session = Session(scale=1.0, seed=0, graphs={"toy": small_social_graph})
    serial_plan = session.plan().datasets("toy").partitioners("1D").algorithms("PR")
    parallel_plan = (
        session.plan().datasets("toy").partitioners("1D").algorithms("PR").engine_workers(4)
    )
    serial_cell = serial_plan.cells()[0]
    parallel_cell = parallel_plan.cells()[0]
    assert serial_plan._record_key(serial_cell) == parallel_plan._record_key(parallel_cell)


@needs_shm
def test_graph_service_engine_summary(small_social_graph):
    from repro.serve.service import GraphService

    session = Session(scale=1.0, seed=0, graphs={"toy": small_social_graph})
    service = GraphService(
        session, ["toy"], "RVC", 4, landmark_count=2, engine_workers=2
    )
    service.preload()
    summary = service.engine_summary()
    assert summary["configured_workers"] == 2
    # preload published the graph into the registry: its executor is live.
    assert summary["executors"] >= 1
    assert summary["shared_memory"]["segments"] >= 3
    assert set(summary["supersteps"]) == {"parallel", "serial", "parallel_fraction"}
    # The batch-sweep primitive actually uses the pool (and stays correct).
    source = int(small_social_graph.vertex_ids[0])
    distances = service.exact_distances("toy", source)
    assert distances[source] == 0

    with pytest.raises(EngineError):
        GraphService(session, ["toy"], "RVC", 4, engine_workers=0)
