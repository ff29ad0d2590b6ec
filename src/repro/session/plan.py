"""Declarative experiment grids: the fluent planner behind the harness.

An :class:`ExperimentPlan` describes a grid of runs the way the paper's
evaluation is structured — datasets x partitioners x granularities x
algorithms x backends — and expands it into explicit, inspectable
:class:`PlannedRun` cells::

    session = Session(scale=0.35, seed=17)
    results = (
        session.plan()
        .datasets("youtube", "pokec")
        .partitioners("2D", "DC")
        .granularities(128, 256)
        .algorithms("PR", "CC")
        .run(workers=4)
    )

Cells execute against the session's partition cache, so each ``(dataset,
partitioner, num_partitions)`` triple is partitioned exactly once no
matter how many algorithm/backend cells consume it.  ``run(workers=N)``
executes cells on a thread pool — safe because both the simulator's
array-native supersteps and the vectorized kernels only read the shared
:class:`~repro.engine.partitioned_graph.PartitionedGraph` — or, with
``executor="process"``, on separate worker interpreters that rebuild
placements through the session's shared artifact store.  Either way
records come back in cell order, so parallel runs are record-identical
to serial ones.  When the session has a store attached, completed cells
are persisted as they finish and already-stored cells are skipped
(unless ``resume=False``), which is what makes interrupted grids
resumable.

A plan with no ``algorithms(...)`` call is *metrics-only*: each cell
just materialises the placement and its Section 3.1 metrics (the Tables
2-3 workload), recorded with ``algorithm == METRICS_ONLY`` and zero
simulated time.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.registry import canonical_algorithm_name, run_algorithm
from ..backends import get_backend
from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..errors import AnalysisError, EngineError, require_count
from ..partitioning.registry import PAPER_PARTITIONER_NAMES, canonical_partitioner_name
from .resultset import ResultSet
from .session import Session, _KeyedCache
from .store import ArtifactStore

__all__ = [
    "EXECUTORS","METRICS_ONLY", "PlannedRun", "PlanPreview", "ExperimentPlan"]

#: ``RunRecord.algorithm`` marker of metrics-only cells (no execution).
METRICS_ONLY = "METRICS"

#: Supported ``ExperimentPlan.run`` executors.
EXECUTORS = ("thread", "process")


def _simulation_fingerprint(
    cluster: Optional[ClusterConfig], cost_parameters: Optional[CostParameters]
) -> Optional[str]:
    """A canonical string identifying a non-default simulation setup, so
    stored records never answer for runs under a different calibration."""
    if cluster is None and cost_parameters is None:
        return None
    return json.dumps(
        {
            "cluster": None if cluster is None else dataclasses.asdict(cluster),
            "cost_parameters": (
                None if cost_parameters is None else dataclasses.asdict(cost_parameters)
            ),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


@dataclass(frozen=True)
class PlannedRun:
    """One fully-resolved cell of an experiment grid."""

    dataset: str
    partitioner: str
    num_partitions: int
    algorithm: Optional[str]  # None = metrics-only (no algorithm execution)
    backend: str
    num_iterations: int
    scale: float
    seed: int

    @property
    def partition_key(self) -> Tuple[str, str, int, float, int]:
        """The session cache key this cell resolves its placement through."""
        return (self.dataset, self.partitioner, self.num_partitions, self.scale, self.seed)

    def as_row(self) -> dict:
        """Flatten the cell for tabulation (``repro sweep --dry-run``)."""
        return {
            "dataset": self.dataset,
            "partitioner": self.partitioner,
            "partitions": self.num_partitions,
            "algorithm": self.algorithm or METRICS_ONLY.lower(),
            "backend": self.backend if self.algorithm else "-",
            "iterations": self.num_iterations if self.algorithm else "-",
        }


@dataclass(frozen=True)
class PlanPreview:
    """What a plan would do: its cells and the partition-cache forecast."""

    cells: Tuple[PlannedRun, ...]
    unique_partitions: int
    partition_builds: int
    expected_cache_hits: int

    @property
    def num_cells(self) -> int:
        return len(self.cells)


def _flatten(values: Sequence) -> List:
    """Accept both varargs and a single iterable: f(a, b) == f([a, b])."""
    if len(values) == 1 and isinstance(values[0], (list, tuple, set, frozenset)):
        return list(values[0])
    return list(values)


class ExperimentPlan:
    """Fluent builder for a grid of runs over one :class:`Session`.

    Every setter validates eagerly and returns ``self``.  Defaults mirror
    the paper's setup: all six partitioners, granularities 128 and 256,
    the ``reference`` backend, 10 iterations — and *metrics-only* cells
    until :meth:`algorithms` is called.
    """

    #: The paper's two granularities (configurations i and ii).
    DEFAULT_GRANULARITIES = (128, 256)

    def __init__(self, session: Session) -> None:
        self._session = session
        self._datasets: Optional[List[str]] = None
        self._partitioners: List[str] = list(PAPER_PARTITIONER_NAMES)
        self._granularities: List[int] = list(self.DEFAULT_GRANULARITIES)
        self._algorithms: List[Optional[str]] = [None]
        self._backends: List[str] = ["reference"]
        self._num_iterations: int = 10
        self._landmark_count: Optional[int] = None
        self._landmark_seed: Optional[int] = None
        self._cluster: Optional[ClusterConfig] = session.cluster
        self._cost_parameters: Optional[CostParameters] = session.cost_parameters
        self._engine_workers: Optional[int] = None

    # ------------------------------------------------------------------
    # Grid axes
    # ------------------------------------------------------------------
    def datasets(self, *names: str) -> "ExperimentPlan":
        """Datasets to cover (names resolved through the session's catalog)."""
        resolved = _flatten(names)
        if not resolved:
            raise AnalysisError("datasets(...) requires at least one dataset name")
        self._datasets = [str(name) for name in resolved]
        return self

    def partitioners(self, *names: str) -> "ExperimentPlan":
        """Partitioning strategies, case-insensitive (default: the paper's six)."""
        resolved = _flatten(names)
        if not resolved:
            raise AnalysisError("partitioners(...) requires at least one strategy name")
        self._partitioners = [canonical_partitioner_name(name) for name in resolved]
        return self

    def granularities(self, *counts: int) -> "ExperimentPlan":
        """Partition counts to sweep (default: the paper's 128 and 256)."""
        resolved = _flatten(counts)
        if not resolved:
            raise AnalysisError("granularities(...) requires at least one partition count")
        self._granularities = [
            require_count(count, "partition count", 1, AnalysisError) for count in resolved
        ]
        return self

    def algorithms(self, *names: str) -> "ExperimentPlan":
        """Algorithms to execute per placement.

        Calling with no arguments (or an explicit ``None``) makes the plan
        *metrics-only*.  An empty iterable is rejected — a caller
        forwarding a user-supplied list that happens to be empty should
        fail loudly, not silently degrade to zero-timing metrics records.
        """
        if not names:
            self._algorithms = [None]
            return self
        resolved = _flatten(names)
        if resolved == [None]:
            self._algorithms = [None]
            return self
        if not resolved:
            raise AnalysisError(
                "algorithms(...) requires at least one algorithm name; "
                "call algorithms() with no arguments for a metrics-only plan"
            )
        try:
            self._algorithms = [canonical_algorithm_name(name) for name in resolved]
        except EngineError as error:
            raise AnalysisError(str(error)) from error
        return self

    def backends(self, *names: str) -> "ExperimentPlan":
        """Execution backends (default: the ``reference`` simulator)."""
        resolved = _flatten(names)
        if not resolved:
            raise AnalysisError("backends(...) requires at least one backend name")
        for name in resolved:
            get_backend(name)  # validate eagerly; raises BackendError if unknown
        self._backends = [str(name) for name in resolved]
        return self

    # ------------------------------------------------------------------
    # Execution parameters
    # ------------------------------------------------------------------
    def iterations(self, count: int) -> "ExperimentPlan":
        """Superstep budget per algorithm run (default 10, the paper's setting)."""
        self._num_iterations = require_count(count, "num_iterations", 1, AnalysisError)
        return self

    def landmarks(self, count: int, seed: Optional[int] = None) -> "ExperimentPlan":
        """Pre-choose ``count`` SSSP landmarks per dataset (memoized on the session).

        Without this call SSSP cells let :func:`run_algorithm` pick its own
        default landmark.  ``seed`` defaults to ``session.seed + 7``.
        """
        self._landmark_count = require_count(count, "landmark count", 1, AnalysisError)
        self._landmark_seed = None if seed is None else int(seed)
        return self

    def cluster(self, cluster: Optional[ClusterConfig]) -> "ExperimentPlan":
        """Simulated cluster for reference-backend cells (default: the session's)."""
        self._cluster = cluster
        return self

    def cost_parameters(self, parameters: Optional[CostParameters]) -> "ExperimentPlan":
        """Cost-model calibration for reference-backend cells."""
        self._cost_parameters = parameters
        return self

    def engine_workers(self, workers: Optional[int]) -> "ExperimentPlan":
        """Shared-memory Pregel workers per cell (``None``/1 = serial).

        Fans each reference-backend Pregel run's supersteps across a
        process pool (see :mod:`repro.engine.parallel`).  Results are
        bit-identical at any worker count, so this is deliberately *not*
        part of the record identity: cached records from serial runs
        satisfy parallel plans and vice versa.  Composes with
        ``run(workers=...)``: that parallelises across cells, this within
        one.
        """
        if workers is not None and int(workers) < 1:
            raise AnalysisError("engine_workers must be >= 1")
        self._engine_workers = None if workers is None else int(workers)
        return self

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def cells(self) -> List[PlannedRun]:
        """Expand the grid into explicit cells.

        The order is deterministic: dataset-major, then granularity, then
        algorithm, then backend, then partitioner — so a one-granularity
        plan lists dataset -> partitioner, the row order of Tables 2-3 and
        Figures 3-6.
        """
        if self._datasets is None:
            from ..datasets.catalog import PAPER_DATASET_NAMES

            datasets = list(PAPER_DATASET_NAMES)
        else:
            datasets = self._datasets
        return [
            PlannedRun(
                dataset=dataset,
                partitioner=partitioner,
                num_partitions=num_partitions,
                algorithm=algorithm,
                backend=backend,
                num_iterations=self._num_iterations,
                scale=self._session.scale,
                seed=self._session.seed,
            )
            for dataset in datasets
            for num_partitions in self._granularities
            for algorithm in self._algorithms
            for backend in self._backends
            for partitioner in self._partitioners
        ]

    def preview(self) -> PlanPreview:
        """The planned cells plus a partition-cache forecast (no execution)."""
        cells = tuple(self.cells())
        unique = {cell.partition_key for cell in cells}
        builds = sum(
            1
            for dataset, partitioner, num_partitions, _, _ in unique
            if not self._session.is_partitioned(dataset, partitioner, num_partitions)
        )
        return PlanPreview(
            cells=cells,
            unique_partitions=len(unique),
            partition_builds=builds,
            expected_cache_hits=len(cells) - builds,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        workers: int = 1,
        executor: str = "thread",
        resume: Optional[bool] = None,
    ) -> ResultSet:
        """Execute every cell and return a :class:`ResultSet` in cell order.

        ``workers`` > 1 executes cells concurrently — on a thread pool by
        default, or on a :class:`~concurrent.futures.ProcessPoolExecutor`
        with ``executor="process"`` (cells ship to workers as picklable
        specs; each worker process rebuilds placements through the shared
        artifact store when one is attached).  Results are always
        re-assembled in cell order, so the records are identical to a
        ``workers=1`` run (measured wall-clock timings aside).

        When the session has an artifact store, every completed cell's
        record is persisted as it finishes, and — unless ``resume=False``
        — cells whose records are already stored are *not* re-executed:
        an interrupted grid resumes from where it stopped, and repeating
        a finished sweep re-runs nothing.  ``resume=True`` makes that
        expectation explicit (it raises without a store).
        """
        workers = require_count(workers, "workers", 1, AnalysisError)
        if executor not in EXECUTORS:
            raise AnalysisError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        session = self._session
        if resume is None:
            reuse = session.store is not None
        else:
            reuse = bool(resume)
            if reuse and session.store is None:
                raise AnalysisError(
                    "resume=True requires a session with an artifact store attached "
                    "(Session(store=...))"
                )
        cells = self.cells()
        if executor == "process":
            # Validate up front, against the *whole* grid: whether a cell is
            # rejected must not depend on how many cells the store already
            # holds or on the worker count.
            for cell in cells:
                if session.is_registered(cell.dataset):
                    raise AnalysisError(
                        f"executor='process' cannot reach the registered graph "
                        f"{cell.dataset!r} from worker processes; use "
                        f"executor='thread' or catalog datasets"
                    )
        records: List[Optional[object]] = [None] * len(cells)
        pending: List[Tuple[int, PlannedRun]] = []
        for index, cell in enumerate(cells):
            store = session._store_for(cell.dataset)
            if reuse and store is not None:
                stored = store.load_record(self._record_key(cell))
                session._count_disk("record", hit=stored is not None)
                if stored is not None:
                    records[index] = stored
                    continue
            pending.append((index, cell))

        if pending:
            only = [cell for _, cell in pending]
            # workers == 1 always runs serially in-process (a one-worker
            # pool would only add IPC overhead); with workers > 1 the
            # process executor is used even for a single pending cell, so
            # what "executor='process'" reports is what actually happened.
            if executor == "process" and workers > 1:
                computed = self._run_in_processes(only, workers)
            else:
                computed = self._run_in_threads(only, workers)
            for (index, _), record in zip(pending, computed):
                records[index] = record
        return ResultSet(records)

    def _run_in_threads(self, cells: Sequence[PlannedRun], workers: int) -> List[object]:
        """Serial / thread-pool execution against this process's session."""
        # Partition-oblivious backends (e.g. ``vectorized``) produce the
        # same result for every placement of a dataset, so their cells
        # share one execution per (dataset, algorithm, iterations).
        oblivious_memo = _KeyedCache()
        session = self._session

        def execute(cell: PlannedRun):
            record = self._execute(cell, oblivious_memo)
            store = session._store_for(cell.dataset)
            if store is not None:
                # Persist per cell (not per grid) so a killed process can
                # resume from its last completed cell.
                store.save_record(self._record_key(cell), record)
            return record

        if workers == 1 or len(cells) <= 1:
            return [execute(cell) for cell in cells]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(execute, cells))

    def _run_in_processes(self, cells: Sequence[PlannedRun], workers: int) -> List[object]:
        """Multi-core execution: ship cells to worker processes as specs.

        Each worker rebuilds a session from the spec — sharing placements,
        landmarks and records through the artifact store when the parent
        session has one — and executes cells with the exact serial code
        path, so the returned records are identical to an in-process run.
        """
        session = self._session
        context = _WorkerContext(
            scale=session.scale,
            seed=session.seed,
            store_root=None if session.store is None else session.store.root,
            cluster=self._cluster,
            cost_parameters=self._cost_parameters,
            landmark_count=self._landmark_count,
            landmark_seed=self._landmark_seed,
            engine_workers=self._engine_workers,
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_execute_cell_in_worker, [(context, cell) for cell in cells])
            )
        records = []
        for record, stats_delta in outcomes:
            # Surface the workers' cache activity in the parent session, so
            # `session.stats` (and the CLI's cache report) stays honest for
            # process-parallel runs instead of reading all zeros.
            session.absorb_stats(stats_delta)
            records.append(record)
        return records

    def _record_key(self, cell: PlannedRun) -> Dict[str, object]:
        """The artifact-store key identifying ``cell``'s completed record.

        Includes everything the record's values depend on: the grid axes,
        the effective SSSP landmark choice, and a fingerprint of any
        non-default cluster / cost-model calibration.
        """
        landmarks = None
        if cell.algorithm == "SSSP" and self._landmark_count is not None:
            seed = (
                self._session.seed + 7
                if self._landmark_seed is None
                else self._landmark_seed
            )
            landmarks = (self._landmark_count, seed)
        return ArtifactStore.record_key(
            dataset=cell.dataset,
            partitioner=cell.partitioner,
            num_partitions=cell.num_partitions,
            algorithm=cell.algorithm or METRICS_ONLY,
            backend=cell.backend if cell.algorithm else "none",
            num_iterations=cell.num_iterations if cell.algorithm else 0,
            scale=cell.scale,
            seed=cell.seed,
            landmarks=landmarks,
            simulation=(
                None
                if cell.algorithm is None
                else _simulation_fingerprint(self._cluster, self._cost_parameters)
            ),
        )

    def _execute(self, cell: PlannedRun, oblivious_memo: _KeyedCache):
        from ..analysis.results import RunRecord

        session = self._session
        backend = None if cell.algorithm is None else get_backend(cell.backend)
        # Partition-aware execution touches the placement's derived engine
        # structures; materialise them under the session's per-key lock so
        # concurrent cells share one build instead of racing the lazy
        # initialisers.  Metrics-only and partition-oblivious cells skip it.
        pgraph = session.partitioned(
            cell.dataset,
            cell.partitioner,
            cell.num_partitions,
            engine_ready=backend is not None and backend.uses_partitioning,
        )
        if cell.algorithm is None:
            return RunRecord(
                dataset=cell.dataset,
                partitioner=cell.partitioner,
                num_partitions=cell.num_partitions,
                algorithm=METRICS_ONLY,
                metrics=pgraph.metrics,
                simulated_seconds=0.0,
                num_supersteps=0,
                backend="none",
                wall_seconds=0.0,
            )

        landmarks = None
        if cell.algorithm == "SSSP" and self._landmark_count is not None:
            landmarks = session.landmarks(
                cell.dataset, self._landmark_count, self._landmark_seed
            )

        def run_cell():
            return run_algorithm(
                cell.algorithm,
                pgraph,
                num_iterations=cell.num_iterations,
                landmarks=landmarks,
                cluster=self._cluster,
                cost_parameters=self._cost_parameters,
                backend=cell.backend,
                engine_workers=self._engine_workers,
            )

        if backend.uses_partitioning:
            result = run_cell()
        else:
            memo_key = (cell.dataset, cell.algorithm, cell.backend, cell.num_iterations)
            result = oblivious_memo.get(memo_key, run_cell)

        return RunRecord(
            dataset=cell.dataset,
            partitioner=cell.partitioner,
            num_partitions=cell.num_partitions,
            algorithm=cell.algorithm,
            metrics=pgraph.metrics,
            simulated_seconds=result.simulated_seconds,
            num_supersteps=result.num_supersteps,
            backend=result.backend,
            wall_seconds=result.wall_seconds,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        datasets = "paper" if self._datasets is None else len(self._datasets)
        algorithms = [name or METRICS_ONLY.lower() for name in self._algorithms]
        return (
            f"ExperimentPlan(datasets={datasets}, partitioners={self._partitioners}, "
            f"granularities={self._granularities}, algorithms={algorithms}, "
            f"backends={self._backends})"
        )


# ----------------------------------------------------------------------
# Process-pool worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WorkerContext:
    """Everything a worker process needs to rebuild the plan's execution
    environment (all fields are picklable and hashable)."""

    scale: float
    seed: int
    store_root: Optional[str]
    cluster: Optional[ClusterConfig]
    cost_parameters: Optional[CostParameters]
    landmark_count: Optional[int]
    landmark_seed: Optional[int]
    engine_workers: Optional[int] = None


#: Per-process cache: one rebuilt (plan, oblivious-memo) pair per context,
#: so a worker executing many cells shares graph loads and placements
#: instead of rebuilding them per cell.
_WORKER_STATE: Dict[_WorkerContext, Tuple["ExperimentPlan", _KeyedCache]] = {}


def _worker_state(context: _WorkerContext) -> Tuple["ExperimentPlan", _KeyedCache]:
    state = _WORKER_STATE.get(context)
    if state is None:
        session = Session(
            scale=context.scale,
            seed=context.seed,
            cluster=context.cluster,
            cost_parameters=context.cost_parameters,
            store=context.store_root,
        )
        plan = ExperimentPlan(session)
        plan._cluster = context.cluster
        plan._cost_parameters = context.cost_parameters
        plan._landmark_count = context.landmark_count
        plan._landmark_seed = context.landmark_seed
        plan._engine_workers = context.engine_workers
        state = (plan, _KeyedCache())
        _WORKER_STATE[context] = state
    return state


def _execute_cell_in_worker(payload: Tuple[_WorkerContext, PlannedRun]):
    """Top-level (hence picklable) entry point of process-pool workers.

    Runs the exact serial execution path against a per-process session;
    when a store is shared, the completed record is persisted *from the
    worker*, so even cells whose results never reach a killed parent
    remain resumable.  Returns ``(record, stats_delta)`` — the cell's
    cache accounting, for the parent session to absorb.
    """
    context, cell = payload
    plan, oblivious_memo = _worker_state(context)
    before = plan._session.stats.as_dict()
    record = plan._execute(cell, oblivious_memo)
    store = plan._session._store_for(cell.dataset)
    if store is not None:
        store.save_record(plan._record_key(cell), record)
    after = plan._session.stats.as_dict()
    delta = {key: after[key] - before[key] for key in after}
    return record, delta
