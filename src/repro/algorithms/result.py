"""Common result type returned by every graph algorithm."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional

import numpy as np

from ..engine.cost_model import SimulationReport

__all__ = ["AlgorithmResult"]


@dataclass(eq=False)
class AlgorithmResult:
    """Final vertex values plus the execution record of one run.

    ``values`` holds the final state densely, row ``i`` for vertex
    ``vertex_ids[i]``: one number per vertex, or for landmark sweeps a
    ``(num_vertices, len(columns))`` hop matrix whose column ``j`` belongs
    to landmark (or source) ``columns[j]`` and where ``inf`` means
    unreached.  :attr:`vertex_values` renders it as a dict on first read.

    ``report`` is the simulated cluster accounting and is only produced by
    the ``reference`` backend; array backends leave it ``None``.
    ``backend`` records which execution backend produced the values and
    ``wall_seconds`` the measured wall-clock time of the run (filled in by
    :func:`repro.algorithms.registry.run_algorithm`).
    """

    algorithm: str
    vertex_ids: np.ndarray
    values: np.ndarray
    num_supersteps: int
    report: Optional[SimulationReport] = None
    backend: str = "reference"
    wall_seconds: float = 0.0
    columns: Optional[List[int]] = None

    @cached_property
    def vertex_values(self) -> Dict[int, Any]:
        """``{vertex: value}`` in vertex order, with plain ``float``/``int``
        values; for a hop matrix, ``{vertex: {column id: hops}}`` holding
        the reached columns in column order.  Built once, on first read."""
        ids = self.vertex_ids.tolist()
        if self.columns is None:
            return dict(zip(ids, self.values.tolist()))
        maps: Dict[int, Dict[int, int]] = {v: {} for v in ids}
        for j, column in enumerate(self.columns):
            reached = np.flatnonzero(np.isfinite(self.values[:, j]))
            hops = self.values[reached, j].astype(np.int64)
            for i, distance in zip(reached.tolist(), hops.tolist()):
                maps[ids[i]][column] = distance
        return maps

    @property
    def simulated_seconds(self) -> float:
        """End-to-end simulated execution time (0.0 without a cost model)."""
        if self.report is None:
            return 0.0
        return self.report.total_seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AlgorithmResult({self.algorithm!r}, backend={self.backend!r}, "
            f"vertices={self.vertex_ids.size}, "
            f"supersteps={self.num_supersteps}, seconds={self.simulated_seconds:.4f})"
        )
