"""The shm-pool scan strategy: one superstep's scan across worker processes.

The superstep loop itself lives in :mod:`repro.engine.pregel` (see "One
driver, three scans" there, which also states why every scan strategy is
bit-identical); this module only shards the *scan* across a persistent
:class:`~concurrent.futures.ProcessPoolExecutor`.  Edge partitions are the
unit of work, exactly as in the paper: the partition-major triplet arrays
and the membership-derived per-partition outbox offsets are published
**once** into ``multiprocessing.shared_memory`` segments through
:class:`~repro.engine.shm_registry.ShmRegistry`, and worker processes
*attach* zero-copy ``np.ndarray`` views instead of unpickling graph data
per superstep.

Each scan copies the driver's ``state``/``active`` into the run's
segments and runs two fan-out rounds:

1. **scan + pass-1 fold** — every worker handles a set of partitions:
   it masks the partition's triplets against the shared ``active`` array,
   calls the kernel's ``send_message_array`` on them, left-folds the
   messages into the partition's outbox slots and writes the slot
   targets/values into the partition's region of the shared outbox;
2. **pass-2 merge** — the parent unions the slot targets, then workers
   fold disjoint *target ranges* across all partitions in ascending
   partition order.

Scans whose active frontier is small run in the parent through the
in-process scan (dispatch latency would dominate); the results are
identical either way and the split is surfaced via :func:`engine_stats`
for ``repro serve /stats``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EngineError
from ..partitioning.membership import segment_arange
from .messaging import ArrayMessageKernel, active_edge_mask, triplet_scan
from .shm_registry import (
    ShmRegistry,
    attach_array,
    set_attach_unregister,
    shared_memory_available,
)

__all__ = [
    "ParallelPregelExecutor",
    "engine_stats",
    "parallel_supported",
    "reset_engine_stats",
]

#: Below this many active vertices a data-driven superstep runs serially in
#: the parent — worker dispatch latency would exceed the superstep's work.
#: ``always_active`` algorithms (full scans every superstep) always fan out.
_DEFAULT_MIN_PARALLEL_ACTIVE = 2048

#: Environment override for the threshold (tests set it to 0 so tiny zoo
#: graphs still exercise the worker rounds).
_MIN_ACTIVE_ENV = "REPRO_PARALLEL_MIN_ACTIVE"

_SHM_PROBED: Optional[bool] = None

_STATS_LOCK = threading.Lock()
_STATS = {"runs": 0, "supersteps_parallel": 0, "supersteps_serial": 0}

#: executor cache: PartitionedGraph -> {workers: executor}.  Weak keys so a
#: collected graph tears its executor (pool + static segments) down with it.
_EXECUTOR_CACHE: "weakref.WeakKeyDictionary[Any, Dict[int, ParallelPregelExecutor]]" = (
    weakref.WeakKeyDictionary()
)
_EXECUTOR_CACHE_LOCK = threading.Lock()

_RUN_IDS = itertools.count(1)


def parallel_supported() -> bool:
    """Whether this platform can run shared-memory parallel supersteps."""
    global _SHM_PROBED
    if _SHM_PROBED is None:
        _SHM_PROBED = shared_memory_available()
    return _SHM_PROBED


def _min_parallel_active() -> int:
    raw = os.environ.get(_MIN_ACTIVE_ENV)
    if raw is None:
        return _DEFAULT_MIN_PARALLEL_ACTIVE
    try:
        return max(0, int(raw))
    except ValueError:
        return _DEFAULT_MIN_PARALLEL_ACTIVE


def reset_engine_stats() -> None:
    """Zero the run/superstep counters (test isolation)."""
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0


def engine_stats() -> Dict[str, object]:
    """Process-wide parallel-engine telemetry for ``/stats`` and benches."""
    from .shm_registry import live_segment_stats

    with _EXECUTOR_CACHE_LOCK:
        executors = [
            executor
            for per_graph in _EXECUTOR_CACHE.values()
            for executor in per_graph.values()
            if not executor.closed
        ]
    segments, total_bytes = live_segment_stats()
    with _STATS_LOCK:
        snapshot = dict(_STATS)
    total = snapshot["supersteps_parallel"] + snapshot["supersteps_serial"]
    return {
        "executors": len(executors),
        "workers": sum(executor.workers for executor in executors),
        "shared_memory": {"segments": segments, "bytes": total_bytes},
        "runs": snapshot["runs"],
        "supersteps": {
            "parallel": snapshot["supersteps_parallel"],
            "serial": snapshot["supersteps_serial"],
            "parallel_fraction": (
                round(snapshot["supersteps_parallel"] / total, 4) if total else 0.0
            ),
        },
    }


def _count_run(parallel_steps: int, serial_steps: int) -> None:
    with _STATS_LOCK:
        _STATS["runs"] += 1
        _STATS["supersteps_parallel"] += parallel_steps
        _STATS["supersteps_serial"] += serial_steps


# ----------------------------------------------------------------------
# Worker side.  Everything below the parent/worker line communicates via
# shared-memory views; task arguments are limited to manifests (segment
# names + small metadata) and per-superstep scalars.
# ----------------------------------------------------------------------
class _StaticContext:
    """Worker-side attachment of one executor's immutable graph segments."""

    def __init__(self, manifest: Dict[str, object]) -> None:
        self.key = manifest["key"]
        self._handles = []
        for name in ("src", "dst", "master_of"):
            shm, view = attach_array(manifest[name])
            view.flags.writeable = False
            self._handles.append(shm)
            setattr(self, name, view)
        self.edge_bounds = np.asarray(manifest["edge_bounds"], dtype=np.int64)
        self.outbox_offsets = np.asarray(manifest["outbox_offsets"], dtype=np.int64)


class _RunContext:
    """Worker-side attachment of one run's mutable segments + kernel."""

    def __init__(self, manifest: Dict[str, object]) -> None:
        self.run_id = manifest["run_id"]
        self._handles = []
        kernel_shm, kernel_buf = attach_array(manifest["kernel"])
        self._handles.append(kernel_shm)
        self.kernel = pickle.loads(kernel_buf.tobytes())
        for name in ("state", "active", "out_targets", "out_values", "targets", "merged"):
            shm, view = attach_array(manifest[name])
            self._handles.append(shm)
            setattr(self, name, view)
        self.always_active = bool(manifest["always_active"])
        self.active_direction = str(manifest["active_direction"])
        self.executor_of = np.asarray(manifest["executor_of"], dtype=np.int64)
        # pid -> (unique inverse, slot count): the superstep-invariant fold
        # structure of static-message-structure kernels (PageRank).
        self.fold_cache: Dict[int, Tuple[np.ndarray, int]] = {}


#: Per-worker caches (size 1: a worker pool belongs to one executor, and
#: the executor serialises runs).  Keyed so a stale entry is replaced.
_worker_static: Dict[object, _StaticContext] = {}
_worker_runs: Dict[object, _RunContext] = {}


def _worker_init(start_method: str) -> None:
    """Pool initializer: tune tracker behaviour to the start method."""
    set_attach_unregister(start_method != "fork")


def _static_context(manifest: Dict[str, object]) -> _StaticContext:
    context = _worker_static.get(manifest["key"])
    if context is None:
        _worker_static.clear()
        context = _StaticContext(manifest)
        _worker_static[manifest["key"]] = context
    return context


def _run_context(manifest: Dict[str, object]) -> _RunContext:
    context = _worker_runs.get(manifest["run_id"])
    if context is None:
        _worker_runs.clear()
        context = _RunContext(manifest)
        _worker_runs[manifest["run_id"]] = context
    return context


def _worker_scan_fold(
    static_manifest: Dict[str, object],
    run_manifest: Dict[str, object],
    pids: Sequence[int],
    cache_structure: bool,
    need_route: bool,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Round 1 for a set of partitions: scan, send, pass-1 fold, write outbox.

    Returns ``(slot_counts, scanned_counts, remote, local)`` aligned with
    ``pids``; the routing counters are only computed when ``need_route``
    (the parent caches them for static message structures).
    """
    static = _static_context(static_manifest)
    run = _run_context(run_manifest)
    kernel = run.kernel
    slot_counts = np.zeros(len(pids), dtype=np.int64)
    scanned_counts = np.zeros(len(pids), dtype=np.int64)
    remote = 0
    local = 0
    for i, pid in enumerate(pids):
        begin = int(static.edge_bounds[pid])
        end = int(static.edge_bounds[pid + 1])
        src = static.src[begin:end]
        dst = static.dst[begin:end]
        if run.always_active:
            scanned_src, scanned_dst = src, dst
            scanned_counts[i] = end - begin
        else:
            picked = np.flatnonzero(
                active_edge_mask(run.active, src, dst, run.active_direction)
            )
            scanned_src, scanned_dst = src[picked], dst[picked]
            scanned_counts[i] = picked.size
        _, target_idx, messages = kernel.send_message_array(
            scanned_src, scanned_dst, run.state
        )
        offset = int(static.outbox_offsets[pid])
        capacity = int(static.outbox_offsets[pid + 1]) - offset
        cached = run.fold_cache.get(pid) if cache_structure else None
        if cached is None:
            slot_targets, inverse = np.unique(target_idx, return_inverse=True)
            num_slots = int(slot_targets.size)
            if num_slots > capacity:  # pragma: no cover - membership invariant
                raise EngineError(
                    f"partition {pid} produced {num_slots} outbox slots but its "
                    f"mirror set only holds {capacity} vertices"
                )
            run.out_targets[offset:offset + num_slots] = slot_targets
            if cache_structure:
                run.fold_cache[pid] = (inverse, num_slots)
        else:
            inverse, num_slots = cached
        outbox = kernel.identity_array(num_slots)
        kernel.merge_ufunc.at(outbox, inverse, messages)
        run.out_values[offset:offset + num_slots] = outbox
        slot_counts[i] = num_slots
        if need_route and num_slots:
            # The in-process scan's shipped/remote slot masks for this
            # partition (its id is constant here, so they collapse to scalars).
            masters = static.master_of[run.out_targets[offset:offset + num_slots]]
            shipped = masters != pid
            if shipped.any():
                crossed = int(
                    (run.executor_of[pid] != run.executor_of[masters[shipped]]).sum()
                )
                remote += crossed
                local += int(shipped.sum()) - crossed
    return slot_counts, scanned_counts, remote, local


def _worker_merge(
    static_manifest: Dict[str, object],
    run_manifest: Dict[str, object],
    slot_counts: np.ndarray,
    lo: int,
    hi: int,
    num_targets: int,
) -> int:
    """Round 2 for the target range ``[lo, hi)``: pass-2 fold across partitions.

    Folds every partition's slot aggregates for the range's targets in
    ascending partition order — the scalar master-side merge order — and
    writes the merged rows into the shared ``merged`` buffer.
    """
    static = _static_context(static_manifest)
    run = _run_context(run_manifest)
    kernel = run.kernel
    span = run.targets[lo:hi]
    merged = kernel.identity_array(hi - lo)
    first, last = span[0], span[-1]
    num_partitions = static.outbox_offsets.size - 1
    for pid in range(num_partitions):
        count = int(slot_counts[pid])
        if not count:
            continue
        offset = int(static.outbox_offsets[pid])
        slot_targets = run.out_targets[offset:offset + count]
        a = int(np.searchsorted(slot_targets, first, side="left"))
        b = int(np.searchsorted(slot_targets, last, side="right"))
        if a == b:
            continue
        local_idx = np.searchsorted(span, slot_targets[a:b])
        kernel.merge_ufunc.at(merged, local_idx, run.out_values[offset + a:offset + b])
    run.merged[lo:hi] = merged
    return hi - lo


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
def _assign_partition_chunks(edge_counts: np.ndarray, workers: int) -> List[List[int]]:
    """Greedy LPT assignment of partitions to ``workers`` round-1 tasks."""
    order = np.argsort(edge_counts, kind="stable")[::-1]
    num_bins = max(1, min(workers, int(edge_counts.size)))
    bins: List[List[int]] = [[] for _ in range(num_bins)]
    loads = [0] * num_bins
    for pid in order.tolist():
        target = loads.index(min(loads))
        bins[target].append(int(pid))
        loads[target] += int(edge_counts[pid]) + 1
    return [chunk for chunk in bins if chunk]


def _target_ranges(num_targets: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_targets)`` into up to ``workers`` contiguous ranges."""
    num_ranges = max(1, min(workers, num_targets))
    edges = [int(round(num_targets * i / num_ranges)) for i in range(num_ranges + 1)]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]


class ParallelPregelExecutor:
    """A persistent worker pool attached to one graph's shared segments.

    Created once per :class:`~repro.engine.partitioned_graph.PartitionedGraph`
    (see :meth:`for_graph`) and reused across runs and algorithms: the
    triplet/membership segments are published at construction, every run
    (one :meth:`scan` context) only creates its small mutable segments
    (state, active mask, outbox, merge buffers).  Runs are serialised with
    a lock so concurrent serve threads share the pool safely.
    """

    def __init__(self, pgraph, workers: int) -> None:
        if int(workers) < 1:
            raise EngineError(f"parallel workers must be >= 1, got {workers!r}")
        trip = pgraph.triplets()
        if trip.num_edges == 0 or trip.num_vertices == 0:
            raise EngineError("parallel execution requires a non-empty graph")
        self._trip = trip
        self.workers = int(workers)
        self.num_partitions = trip.num_partitions
        self.num_vertices = trip.num_vertices
        self.num_edges = trip.num_edges
        # A partition's outbox region is its replica slots.
        self.outbox_offsets = trip.slot_bounds
        self.outbox_capacity = trip.num_slots
        self.edge_bounds = trip.edge_bounds
        edge_counts = np.diff(self.edge_bounds)
        self._chunks = _assign_partition_chunks(edge_counts, self.workers)

        self._static = ShmRegistry(label="graph")
        self._static.publish_array("src", trip.src)
        self._static.publish_array("dst", trip.dst)
        self._static.publish_array("master_of", trip.master_of)
        self._static_manifest: Dict[str, object] = {
            "key": f"{os.getpid()}-{id(self)}",
            "src": self._static.entry("src"),
            "dst": self._static.entry("dst"),
            "master_of": self._static.entry("master_of"),
            "edge_bounds": self.edge_bounds.tolist(),
            "outbox_offsets": self.outbox_offsets.tolist(),
        }

        methods = multiprocessing.get_all_start_methods()
        context = (
            multiprocessing.get_context("fork")
            if "fork" in methods
            else multiprocessing.get_context()
        )
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(context.get_start_method(),),
        )
        self._run_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @classmethod
    def for_graph(cls, pgraph, workers: int) -> "ParallelPregelExecutor":
        """The cached executor of ``pgraph`` at this worker count.

        The executor (pool + static segments) lives exactly as long as the
        graph: a ``weakref.finalize`` tears it down when the graph is
        collected, and the cache entry disappears with the weak key.
        """
        workers = int(workers)
        with _EXECUTOR_CACHE_LOCK:
            per_graph = _EXECUTOR_CACHE.get(pgraph)
            if per_graph is None:
                per_graph = {}
                _EXECUTOR_CACHE[pgraph] = per_graph
            executor = per_graph.get(workers)
            if executor is None or executor.closed:
                executor = cls(pgraph, workers)
                per_graph[workers] = executor
                weakref.finalize(pgraph, executor.close)
            return executor

    def close(self) -> None:
        """Shut the pool down and unlink the static segments.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        self._static.close()

    def __enter__(self) -> "ParallelPregelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return None

    # ------------------------------------------------------------------
    def _fan_out(self, task, run_manifest: Dict[str, object], argument_lists) -> list:
        """Submit one ``task`` per argument list and gather the results in order."""
        try:
            futures = [
                self._pool.submit(task, self._static_manifest, run_manifest, *arguments)
                for arguments in argument_lists
            ]
            return [future.result() for future in futures]
        except BrokenProcessPool as error:
            # A dead worker breaks the pool for good: close, so that
            # ``for_graph`` builds a fresh executor for the next run.
            self.close()
            raise EngineError(
                f"a worker of the {self.workers}-process Pregel pool died; the pool "
                "was shut down and is rebuilt on the next run"
            ) from error

    @contextmanager
    def scan(
        self,
        state: np.ndarray,
        kernel: ArrayMessageKernel,
        executor_of: np.ndarray,
        active_direction: str,
        always_active: bool,
    ) -> Iterator[Callable]:
        """The shm-pool scan strategy of the superstep driver, for one run.

        Yields ``scan(active, state)`` with the contract (and bit-identical
        output) of :func:`~repro.engine.messaging.triplet_scan`: it copies
        ``state``/``active`` into the run's segments, fans the two rounds
        out and gathers; small frontiers go to the in-process scan instead.
        The merged messages it returns are a view of a run segment, valid
        until the next call.

        ``state`` is the dense initial state (it sizes the state segment).
        The run segments are unlinked on exit, whatever happened inside.
        """
        if self._closed:
            raise EngineError("executor is closed")
        min_active = _min_parallel_active()
        static_structure = always_active and kernel.static_message_structure
        in_parent = triplet_scan(self._trip, kernel, executor_of, active_direction, False)
        width = kernel.message_width
        message_shape = (
            (self.outbox_capacity,) if width is None else (self.outbox_capacity, width)
        )
        merged_shape = (
            (self.num_vertices,) if width is None else (self.num_vertices, width)
        )
        steps = {"parallel": 0, "serial": 0}
        cached = None

        with self._run_lock:
            registry = ShmRegistry(label="pregel-run")
            try:
                shared_state = registry.create_array("state", state.shape, state.dtype)
                shared_active = registry.create_array(
                    "active", (self.num_vertices,), np.bool_
                )
                out_targets = registry.create_array(
                    "out_targets", (self.outbox_capacity,), np.int64
                )
                registry.create_array("out_values", message_shape, kernel.message_dtype)
                targets_buffer = registry.create_array(
                    "targets", (self.num_vertices,), np.int64
                )
                merged_buffer = registry.create_array(
                    "merged", merged_shape, kernel.message_dtype
                )
                registry.publish_bytes("kernel", pickle.dumps(kernel))
                run_manifest: Dict[str, object] = {
                    "run_id": f"{os.getpid()}-{next(_RUN_IDS)}",
                    "always_active": always_active,
                    "active_direction": active_direction,
                    "executor_of": executor_of.tolist(),
                }
                for key in ("kernel", "state", "active", "out_targets", "out_values", "targets", "merged"):
                    run_manifest[key] = registry.entry(key)

                def scan(active, state):
                    nonlocal cached
                    if not always_active and np.count_nonzero(active) < min_active:
                        # Small frontier: dispatch latency would dominate.
                        steps["serial"] += 1
                        return in_parent(active, state)
                    steps["parallel"] += 1
                    shared_state[...] = state
                    shared_active[...] = active
                    slot_counts = np.zeros(self.num_partitions, dtype=np.int64)
                    scanned_counts = np.zeros(self.num_partitions, dtype=np.int64)
                    shuffle_remote = 0
                    shuffle_local = 0
                    round_one = self._fan_out(
                        _worker_scan_fold,
                        run_manifest,
                        [(chunk, static_structure, cached is None) for chunk in self._chunks],
                    )
                    for chunk, (counts, scanned, remote, local) in zip(self._chunks, round_one):
                        slot_counts[chunk] = counts
                        scanned_counts[chunk] = scanned
                        shuffle_remote += remote
                        shuffle_local += local
                    if cached is not None:
                        target_idx, slot_counts, shuffle_remote, shuffle_local = cached
                    else:
                        used = segment_arange(self.outbox_offsets[:-1], slot_counts)
                        target_idx = np.unique(out_targets[used])
                        if static_structure:
                            cached = (target_idx, slot_counts, shuffle_remote, shuffle_local)
                    num_targets = int(target_idx.size)
                    targets_buffer[:num_targets] = target_idx
                    self._fan_out(
                        _worker_merge,
                        run_manifest,
                        [
                            (slot_counts, lo, hi, num_targets)
                            for lo, hi in _target_ranges(num_targets, self.workers)
                        ],
                    )
                    return (
                        target_idx,
                        merged_buffer[:num_targets],
                        scanned_counts,
                        slot_counts,
                        shuffle_remote,
                        shuffle_local,
                    )

                yield scan
            finally:
                registry.close()
        _count_run(steps["parallel"], steps["serial"])
