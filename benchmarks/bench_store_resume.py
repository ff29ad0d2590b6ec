"""F-extra — artifact store: cold vs warm-start grid wall-clock.

Times the same :class:`ExperimentPlan` grid twice against one shared
:class:`ArtifactStore` directory: first *cold* (an empty store — every
placement is partitioned, every algorithm cell executed, every artifact
persisted) and then *warm* in a fresh session, simulating a new process
over the same cache directory (every cell resumes from its stored
record; nothing is partitioned or executed).  The warm run's records
must be identical to the cold run's — a speedup only counts if resuming
is indistinguishable from re-running — and the session's disk counters
must prove zero partition builds.

Like ``bench_parallel_pregel.py`` this is a plain script so CI can
exercise it cheaply::

    PYTHONPATH=src python benchmarks/bench_store_resume.py --quick

``--quick`` shrinks the grid to one small dataset at a small granularity
and only requires the warm start to win (>= 1x); the full run uses the
paper's granularities and expects a >= 5x warm-start speedup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time
from typing import List, Optional

from repro.session import Session

#: Warm-start acceptance bar of the full configuration.
FULL_BAR = 5.0


def _build_plan(session: Session, datasets, partitioners, granularities, algorithms, iterations):
    return (
        session.plan()
        .datasets(datasets)
        .partitioners(partitioners)
        .granularities(granularities)
        .algorithms(algorithms)
        .iterations(iterations)
        .landmarks(5)
    )


def _strip_wall(records):
    return [dataclasses.replace(record, wall_seconds=0.0) for record in records]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small grid, 1x bar (CI mode)")
    parser.add_argument("--scale", type=float, default=None, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json-out", default=None, help="also write the report document to this file"
    )
    args = parser.parse_args(argv)

    if args.quick:
        scale = args.scale if args.scale is not None else 0.05
        datasets = ["youtube"]
        granularities = [8]
        algorithms = ["PR", "CC"]
        iterations = 2
        bar = 1.0
    else:
        scale = args.scale if args.scale is not None else 0.3
        datasets = ["youtube", "pokec", "follow-dec"]
        granularities = [128, 256]
        algorithms = ["PR", "CC", "SSSP"]
        iterations = 10
        bar = FULL_BAR
    partitioners = ["RVC", "1D", "2D", "CRVC", "SC", "DC"]

    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as root:
        cold_session = Session(scale=scale, seed=args.seed, store=root)
        plan = _build_plan(cold_session, datasets, partitioners, granularities, algorithms, iterations)
        started = time.perf_counter()
        cold_records = plan.run()
        cold_seconds = time.perf_counter() - started

        warm_session = Session(scale=scale, seed=args.seed, store=root)
        plan = _build_plan(warm_session, datasets, partitioners, granularities, algorithms, iterations)
        started = time.perf_counter()
        warm_records = plan.run()
        warm_seconds = time.perf_counter() - started

        stats = warm_session.stats
        identical = list(_strip_wall(cold_records)) == list(_strip_wall(warm_records))
        speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
        document = {
            "mode": "quick" if args.quick else "full",
            "scale": scale,
            "cells": len(cold_records),
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "speedup": round(speedup, 2),
            "bar": bar,
            "warm_partition_builds": stats.partition_builds,
            "warm_disk_record_hits": stats.disk_record_hits,
            "records_identical": identical,
        }
        print(json.dumps(document, indent=2))
        if args.json_out:
            with open(args.json_out, "w") as handle:
                json.dump(document, handle, indent=2)
                handle.write("\n")

        failures = []
        if not identical:
            failures.append("warm-start records differ from the cold run")
        if stats.partition_builds != 0:
            failures.append(f"warm start built {stats.partition_builds} placements (expected 0)")
        if stats.disk_record_hits != len(cold_records):
            failures.append(
                f"warm start resumed {stats.disk_record_hits}/{len(cold_records)} cells from disk"
            )
        if speedup < bar:
            failures.append(f"warm-start speedup {speedup:.2f}x below the {bar:.1f}x bar")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
