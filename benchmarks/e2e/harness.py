"""What every workload shares: frozen sizes, failure accounting, samples.

A workload is a function ``run(ctx)`` executed once in a fresh child
process.  It reports through its :class:`Context`:

* ``ctx.begin_timed()`` marks the end of set-up (``setup_s`` runs from
  the moment the parent spawned the child, so interpreter start and
  imports are inside it);
* ``ctx.attempt(label, call)`` runs one cell/run/request and counts it;
  an exception is a counted failure, never a crash;
* ``ctx.check(label, problems)`` counts one oracle check;
* ``ctx.emit(name, value, samples)`` publishes a metric by the name
  ``BENCHMARK.json`` gives it; ``ctx.counts`` collects the exact counts
  ``expected.json`` pins at the default seed.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from surface import Probes
from tracing import Tracer

__all__ = ["Context", "SIZES", "median", "own_peak_rss_mb", "percentile"]

#: Frozen problem sizes, for ``--seconds`` equal to BENCHMARK.json's
#: ``run_seconds``.  "full" was sized on the 2-core reference box so every
#: timed section takes 8-14 s at HEAD (see README, "Sizing"); "smoke" only
#: has to touch every code path inside the tier-1 suite.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "grid_sweep": {
            "scale": 3.0,
            "datasets": ("youtube", "pokec", "orkut", "roadnet-pa"),
            "granularities": (128, 256),
            "algorithms": ("PR", "CC", "SSSP", "TR"),
            "iterations": 10,
        },
        "pr_dense": {
            "dataset": "orkut",
            "scale": 15.0,
            "partitioners": ("2D", "RVC"),
            "partitions": 128,
            "iterations": 20,
            "runs": 16,
            "probe_runs": 3,
        },
        "frontier_sparse": {
            "dataset": "roadnet-ca",
            "scale": 20.0,
            "partitioner": "2D",
            "partitions": 128,
            "landmarks": 3,
            "cc_runs": 8,
            "sssp_runs": 16,
        },
        "ooc_stream": {
            "vertices": 100_000,
            "edges": 600_000,
            "chunk_edges": 131_072,
            "partitions": 64,
            "ingests": 4,
            "pr_iterations": 5,
            "pr_runs": 4,
            "stateful_vertices": 50_000,
            "stateful_edges": 60_000,
            "stateful_chunk_edges": 16_384,
            "stateful_ingests": 4,
            "parse_edges": 250_000,
        },
        "serve_mixed": {
            "dataset": "youtube",
            "scale": 20.0,
            "partitions": 16,
            "landmarks": 4,
            "window_ms": 10,
            "lookups": 18_000,
            "exact": 60,
            "cached": 2_000,
            "hot_sources": 8,
            "burst": 32,
        },
    },
    "smoke": {
        "grid_sweep": {
            "scale": 0.3,
            "datasets": ("youtube", "roadnet-pa"),
            "granularities": (4,),
            "algorithms": ("PR", "CC", "SSSP", "TR"),
            "iterations": 3,
        },
        "pr_dense": {
            "dataset": "orkut",
            "scale": 0.3,
            "partitioners": ("2D", "RVC"),
            "partitions": 8,
            "iterations": 5,
            "runs": 2,
            "probe_runs": 1,
        },
        "frontier_sparse": {
            "dataset": "roadnet-ca",
            "scale": 0.5,
            "partitioner": "2D",
            "partitions": 8,
            "landmarks": 2,
            "cc_runs": 2,
            "sssp_runs": 2,
        },
        "ooc_stream": {
            "vertices": 2_000,
            "edges": 20_000,
            "chunk_edges": 8_192,
            "partitions": 4,
            "ingests": 2,
            "pr_iterations": 2,
            "pr_runs": 2,
            "stateful_vertices": 500,
            "stateful_edges": 2_000,
            "stateful_chunk_edges": 1_024,
            "stateful_ingests": 2,
            "parse_edges": 2_000,
        },
        "serve_mixed": {
            "dataset": "youtube",
            "scale": 0.3,
            "partitions": 4,
            "landmarks": 2,
            "window_ms": 5,
            "lookups": 200,
            "exact": 6,
            "cached": 40,
            "hot_sources": 3,
            "burst": 8,
        },
    },
}

_T = TypeVar("_T")


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``samples``."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


class Context:
    """One workload run's inputs, accounting and outputs."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        nominal_seconds: float,
        trace: bool,
        smoke: bool,
        spawned_at: float,
        tmp: str,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = seconds / nominal_seconds
        self.trace = trace
        self.smoke = smoke
        self.spawned_at = spawned_at
        self.tmp = tmp
        self.size = SIZES["smoke" if smoke else "full"][workload]
        self.tracer = Tracer(workload, enabled=trace)
        self.probes = Probes()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.counts: Dict[str, object] = {}
        self.setup_s: Optional[float] = None
        #: The traced span the layer table is rooted at: the timed section,
        #: unless the workload's breakdown lives in a part of it.
        self.layer_root = f"harness.{workload}"

    # -- sizing ---------------------------------------------------------
    def reps(self, key: str) -> int:
        """The frozen repetition count ``key``, scaled by ``--seconds`` over
        the nominal run length (never below two, so a median exists)."""
        return max(2, round(int(self.size[key]) * self.scale))

    def subdir(self, name: str) -> str:
        path = os.path.join(self.tmp, name)
        os.makedirs(path, exist_ok=True)
        return path

    # -- clock ----------------------------------------------------------
    def begin_timed(self) -> None:
        self.setup_s = time.monotonic() - self.spawned_at

    # -- failure accounting ---------------------------------------------
    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}")

    def attempt(self, label: str, call: Callable[[], _T]) -> Optional[_T]:
        """Run one unit of the workload; an exception is one failure."""
        self.attempted += 1
        try:
            return call()
        except Exception as error:  # noqa: BLE001 - a failed run must not end the workload
            traceback.print_exc()
            self.fail(label, f"{type(error).__name__}: {error}")
            return None

    def check(self, label: str, problems: Sequence[str]) -> None:
        """Count one oracle check; any problem string is a mismatch."""
        self.attempted += 1
        if problems:
            self.fail(label, "; ".join(problems[:3]))

    def check_oracle(self, label: str, oracle: Callable[[], Sequence[str]]) -> None:
        """Run an oracle; one that itself blows up (a result it cannot even
        read) is a mismatch like any other."""
        try:
            problems = oracle()
        except Exception as error:  # noqa: BLE001 - a malformed result is a failed check
            problems = [f"oracle could not read the result: {type(error).__name__}: {error}"]
        self.check(label, problems)

    # -- outputs ----------------------------------------------------------
    def emit(self, name: str, value: Optional[float], samples: int = 1) -> None:
        self.metrics[name] = {"value": value, "samples": samples}

    def emit_common(self, wall_s: float) -> None:
        """The end-to-end metrics every in-process workload has."""
        self.emit("setup_s", self.setup_s)
        self.emit("wall_s", wall_s)
        self.emit("peak_rss_mb", own_peak_rss_mb())

    def span_seconds(self, name: str) -> List[float]:
        return [span.seconds for span in self.tracer.spans if span.name == name]

    def emit_span_sum(self, metric: str, span_name: str) -> None:
        """Publish the summed duration of every ``span_name`` span (None
        when no such span was recorded — the probe was missing)."""
        seconds = self.span_seconds(span_name)
        self.emit(metric, sum(seconds) if seconds else None, len(seconds))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
