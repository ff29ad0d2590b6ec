"""Append one row to the committed perf trajectory, ``BENCH_trajectory.jsonl``.

    python benchmarks/trajectory.py --label "PR 13"            # runs run.py --repeat 5
    python benchmarks/trajectory.py --label parent A.json B.json   # from existing --json-out reports

A row is the median, per workload, of every end-to-end metric
``BENCHMARK.json`` names over all untraced runs given, the samples the
medians were taken over (in run order, so the spread stays on record), and
what is needed to read it later: the label, git SHA, ``nproc``, Python and
numpy versions, seed and sample count.  When the reports hold traced runs
(``run.py --trace``), the row also carries ``per_layer_medians``: the
median of every per-layer metric over those runs, which shows where a
change moved the time.  To compare a change with its parent, take the two
sides as alternating pairs (``run.py --json-out`` once per side and pair,
in the parent's checkout and in this one) and append one row per side from
the reports; ``run.py --compare`` stays the tool for judging two reports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(REPO_ROOT, "benchmarks", "e2e", "run.py")
TRAJECTORY = os.path.join(REPO_ROOT, "BENCH_trajectory.jsonl")


def _samples(runs: List[Dict[str, object]], names: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [values in run order]}}`` for the named metrics."""
    samples: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            if name in names and entry["value"] is not None:
                samples.setdefault(run["workload"], {}).setdefault(name, []).append(entry["value"])
    return samples


def _medians(samples: Dict[str, Dict[str, List[float]]]) -> Dict[str, Dict[str, float]]:
    return {
        workload: {name: statistics.median(values) for name, values in metrics.items()}
        for workload, metrics in samples.items()
    }


def _row(label: str, reports: List[Dict[str, object]]) -> Dict[str, object]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if any(report["smoke"] for report in reports):
        raise SystemExit("no row appended: --smoke reports do not belong in the trajectory")
    runs = [run for report in reports for run in report["runs"] if not run["trace"]]
    traced = [run for report in reports for run in report["runs"] if run["trace"]]
    failed = sorted({run["workload"] for run in runs + traced if run["failed"]})
    if failed or not runs:
        raise SystemExit(f"no row appended: {'failed runs in ' + str(failed) if failed else 'no untraced runs'}")
    samples = _samples(runs, [metric["name"] for metric in spec["end_to_end"]])
    environment = reports[0]["environment"]
    row = {
        "label": label,
        "git_sha": environment["git_sha"],
        "nproc": environment["nproc"],
        "python": environment["python"],
        "numpy": runs[0]["numpy"],
        "seed": environment["seed"],
        "repeats": len(runs) // len(samples),
        "medians": _medians(samples),
        "samples": samples,
    }
    if traced:
        row["per_layer_medians"] = _medians(
            _samples(traced, [metric["name"] for metric in spec["per_layer"]])
        )
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what the row measures (PR number, 'parent', ...)")
    parser.add_argument("reports", nargs="*", help="existing run.py --json-out reports to summarise instead")
    args = parser.parse_args()
    paths = list(args.reports)
    with tempfile.TemporaryDirectory() as tmp:
        if not paths:
            paths = [os.path.join(tmp, "report.json")]
            subprocess.run([sys.executable, RUN, "--repeat", "5", "--json-out", paths[0]], check=True)
        reports = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(json.load(handle))
    row = _row(args.label, reports)
    with open(TRAJECTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
