"""Unified experiment sessions: caching, declarative grids, result sets.

This package is the front door of the experiment layer:

* :class:`Session` — memoized dataset loads and a partitioned-graph cache
  keyed by ``(dataset, partitioner, num_partitions, scale, seed)``;
* :class:`ExperimentPlan` — the fluent grid builder behind
  ``session.plan()``, expanding to explicit :class:`PlannedRun` cells and
  executing them (optionally on a thread pool);
* :class:`ResultSet` — the queryable, serialisable collection of
  :class:`~repro.analysis.results.RunRecord` a plan returns;
* :class:`ArtifactStore` — the persistent on-disk L2 behind
  ``Session(store=...)``: placements, landmark choices and completed run
  records survive the process, making sweeps warm-startable and
  resumable (``repro sweep --cache-dir/--resume``).

It is the one way to run the paper's grid: the CLI's ``metrics``,
``run`` and ``sweep`` commands, the empirical advisor and the
table/figure benchmarks all build a ``session.plan()``.
"""

from .store import STORE_FORMAT_VERSION, ArtifactStore, DiskStats, StoreInfo
from .session import CacheStats, Session
from .resultset import ResultSet
from .plan import METRICS_ONLY, ExperimentPlan, PlannedRun, PlanPreview

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "DiskStats",
    "ExperimentPlan",
    "METRICS_ONLY",
    "PlanPreview",
    "PlannedRun",
    "ResultSet",
    "STORE_FORMAT_VERSION",
    "Session",
    "StoreInfo",
]
