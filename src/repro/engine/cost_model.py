"""Deterministic cost model that turns engine counters into simulated time.

The paper measures wall-clock time on a real Spark cluster.  This
reproduction replaces the cluster with an analytical model: every BSP
superstep reports, per partition, how much compute it performed and how
many bytes/messages it exchanged, and the model converts those counters
into seconds using the cluster topology (executors, cores, network
bandwidth, storage medium).  Absolute values are not meant to match the
paper; the *relative* behaviour across partitioners, datasets and
granularities is what the model is calibrated to preserve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

import numpy as np

from ..errors import EngineError, require_count
from .cluster import ClusterConfig

__all__ = [
    "CostParameters",
    "SuperstepRecord",
    "SimulationReport",
    "CostModel",
]


@dataclass(frozen=True)
class CostParameters:
    """Unit costs used to convert engine counters into seconds.

    The defaults are calibrated so that, on the synthetic datasets shipped
    with the library, communication dominates for PageRank/CC/SSSP-style
    computations on a 1 Gbps network (as in the paper) while per-vertex
    compute dominates for Triangle Count.
    """

    #: Seconds of CPU work per abstract compute unit (one unit ~ one edge visit).
    seconds_per_compute_unit: float = 2.0e-7
    #: Fixed scheduling overhead per task (one task = one partition per superstep).
    task_overhead_seconds: float = 2.0e-4
    #: Fixed driver-side barrier cost per superstep.
    superstep_overhead_seconds: float = 1.0e-3
    #: Serialisation + envelope cost per remote message.
    remote_message_overhead_seconds: float = 6.0e-7
    #: Cost per message exchanged between partitions on the same executor.
    local_message_overhead_seconds: float = 6.0e-8
    #: Payload size of one vertex-state message, in bytes.
    bytes_per_message: int = 64
    #: Fraction of shuffled bytes that are spilled to (and re-read from)
    #: local storage during the exchange, as Spark does for large shuffles.
    spill_fraction: float = 0.3
    #: Fixed job submission overhead (driver, DAG scheduling).
    job_overhead_seconds: float = 0.01

    def __post_init__(self) -> None:
        require_count(self.bytes_per_message, "bytes_per_message", 0, EngineError)
        for item in fields(self):
            value = getattr(self, item.name)
            if not (math.isfinite(value) and value >= 0):
                raise EngineError(
                    f"{item.name} must be a non-negative finite number, got {value!r}"
                )

    def compute_seconds(self, units: float) -> float:
        """CPU seconds for ``units`` abstract compute units on one core."""
        return units * self.seconds_per_compute_unit


@dataclass
class SuperstepRecord:
    """Per-superstep accounting produced by the engine."""

    superstep: int
    active_vertices: int
    edges_scanned: int
    messages_remote: int
    messages_local: int
    bytes_remote: int
    bytes_local: int
    compute_seconds: float
    network_seconds: float
    total_seconds: float


@dataclass
class SimulationReport:
    """Aggregate simulation outcome for one algorithm run."""

    cluster: ClusterConfig
    parameters: CostParameters
    load_seconds: float = 0.0
    supersteps: List[SuperstepRecord] = field(default_factory=list)

    @property
    def num_supersteps(self) -> int:
        """Number of BSP supersteps executed."""
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        """Total messages exchanged (remote + local) over the whole run."""
        return sum(s.messages_remote + s.messages_local for s in self.supersteps)

    @property
    def total_remote_messages(self) -> int:
        """Messages that crossed executor boundaries."""
        return sum(s.messages_remote for s in self.supersteps)

    @property
    def total_bytes(self) -> int:
        """Total bytes shuffled over the network."""
        return sum(s.bytes_remote for s in self.supersteps)

    @property
    def compute_seconds(self) -> float:
        """Simulated seconds spent in compute across all supersteps."""
        return sum(s.compute_seconds for s in self.supersteps)

    @property
    def network_seconds(self) -> float:
        """Simulated seconds spent in communication across all supersteps."""
        return sum(s.network_seconds for s in self.supersteps)

    @property
    def total_seconds(self) -> float:
        """End-to-end simulated execution time (load + job overhead + supersteps)."""
        return (
            self.load_seconds
            + self.parameters.job_overhead_seconds
            + sum(s.total_seconds for s in self.supersteps)
        )


class CostModel:
    """Converts per-superstep counters into simulated seconds."""

    def __init__(self, cluster: ClusterConfig, parameters: Optional[CostParameters] = None) -> None:
        self.cluster = cluster
        self.parameters = parameters or CostParameters()

    def new_report(self) -> SimulationReport:
        """Create an empty report bound to this model's cluster and parameters."""
        return SimulationReport(cluster=self.cluster, parameters=self.parameters)

    # ------------------------------------------------------------------
    def load_seconds(self, dataset_bytes: int) -> float:
        """Time to load the edge list from storage, split across executors."""
        per_executor = dataset_bytes / self.cluster.num_executors
        return per_executor / self.cluster.storage_bytes_per_second

    def executor_compute_seconds(self, partition_units: Sequence[float]) -> float:
        """Slowest-executor compute time for one superstep.

        Each partition is one task; tasks are spread round-robin over the
        executors.  Within an executor the tasks are list-scheduled on
        ``cores_per_executor`` cores, so the makespan is approximated by
        ``max(total_work / cores, largest_task)`` plus a per-task
        scheduling overhead.  The ``largest_task`` term is what makes
        imbalanced partitionings (and coarse granularities) slower, exactly
        the effect the paper observes for configurations (i) vs (ii).
        """
        params = self.parameters
        units = np.asarray(partition_units, dtype=np.float64)
        if not units.size:
            return 0.0
        executors = self.cluster.executor_map(units.size)
        num_executors = self.cluster.num_executors
        per_executor_units = np.bincount(executors, weights=units, minlength=num_executors)
        per_executor_max = np.zeros(num_executors, dtype=np.float64)
        np.maximum.at(per_executor_max, executors, units)
        per_executor_tasks = np.bincount(executors, minlength=num_executors)
        active = per_executor_tasks > 0
        cores = self.cluster.cores_per_executor
        makespan_units = np.maximum(per_executor_units / cores, per_executor_max)
        seconds = params.compute_seconds(makespan_units)
        seconds += params.task_overhead_seconds * per_executor_tasks / cores
        return float(seconds[active].max()) if active.any() else 0.0

    def network_seconds(self, messages_remote: int, messages_local: int, bytes_remote: int) -> float:
        """Communication time for one superstep (network transfer + shuffle spill)."""
        params = self.parameters
        transfer = bytes_remote / self.cluster.network_bytes_per_second
        spill = params.spill_fraction * bytes_remote / self.cluster.storage_bytes_per_second
        envelope = (
            messages_remote * params.remote_message_overhead_seconds
            + messages_local * params.local_message_overhead_seconds
        )
        return transfer + spill + envelope

    def record_superstep(
        self,
        report: SimulationReport,
        superstep: int,
        partition_units: Sequence[float],
        messages_remote: int,
        messages_local: int,
        active_vertices: int,
        edges_scanned: int,
    ) -> SuperstepRecord:
        """Compute a :class:`SuperstepRecord`, append it to ``report`` and return it."""
        params = self.parameters
        bytes_remote = messages_remote * params.bytes_per_message
        bytes_local = messages_local * params.bytes_per_message
        compute = self.executor_compute_seconds(partition_units)
        network = self.network_seconds(messages_remote, messages_local, bytes_remote)
        total = compute + network + params.superstep_overhead_seconds
        record = SuperstepRecord(
            superstep=superstep,
            active_vertices=active_vertices,
            edges_scanned=edges_scanned,
            messages_remote=messages_remote,
            messages_local=messages_local,
            bytes_remote=bytes_remote,
            bytes_local=bytes_local,
            compute_seconds=compute,
            network_seconds=network,
            total_seconds=total,
        )
        report.supersteps.append(record)
        return record
