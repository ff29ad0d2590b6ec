"""One benchmark for the whole pipeline: five workloads, end to end and by layer.

    python benchmarks/e2e/run.py                       # every workload, untraced
    python benchmarks/e2e/run.py --trace               # ... then traced, with layer tables
    python benchmarks/e2e/run.py --workload pr_dense --seed 3 --seconds 12 --trace 0
    python benchmarks/e2e/run.py --repeat 5 --json-out A.json
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --pin                 # rewrite expected.json (seed 17)

Every workload runs in a fresh child process of its own (``--child``), so
``setup_s`` includes the interpreter and the imports, ``peak_rss_mb`` is
that workload's alone and no cache is warm from a previous one.  Children
run with one BLAS thread; temp stores and edge files live under one
``TemporaryDirectory`` inside ``out/``.

Metric names, units and regression bounds come from ``BENCHMARK.json`` at
the repository root — this file defines none of its own.  With a single
``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
for ``--trace 0``, the per-layer metrics for ``--trace 1``.  That line
carries *every* metric of its list: an end-to-end metric that does not
apply to the workload mirrors the workload's ``wall_s`` (as a rate when
higher is better), so its gate there is the ``wall_s`` gate; a per-layer
metric the workload does not measure reads 0.  The readable report above
the line, and ``--json-out``, only ever show what was measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")
#: A child gets this long before it is killed (the contract's per-run cap).
CHILD_TIMEOUT_S = 170.0


def load_spec() -> Dict[str, object]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child side: run one workload in this (fresh) process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace, spec) -> int:
    from harness import Context  # imports repro: part of setup_s by design
    from stages import emit_import_seconds
    from tracing import layer_table, validate_spans
    from wl_engine import frontier_sparse, pr_dense
    from wl_grid import grid_sweep
    from wl_ooc import ooc_stream
    from wl_serve import serve_mixed

    import numpy

    workloads = {
        "grid_sweep": grid_sweep,
        "pr_dense": pr_dense,
        "frontier_sparse": frontier_sparse,
        "ooc_stream": ooc_stream,
        "serve_mixed": serve_mixed,
    }
    ctx = Context(
        workload=args.child,
        seed=args.seed,
        seconds=args.seconds,
        nominal_seconds=float(spec["run_seconds"]),
        trace=args.trace == "1",
        smoke=args.smoke,
        spawned_at=args.spawned_at,
        tmp=args.tmp,
    )
    workloads[args.child](ctx)

    document: Dict[str, object] = {
        "workload": ctx.workload,
        "trace": ctx.trace,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "metrics": ctx.metrics,
        "counts": ctx.counts,
        "probes_missing": ctx.probes.missing,
        "numpy": numpy.__version__,
    }
    if ctx.trace:
        emit_import_seconds(ctx)
        spans = ctx.tracer.dump()
        table = layer_table(spans, ctx.layer_root)
        ctx.emit("harness.attributed_share", table["attributed_share"])
        ctx.emit("harness.probes_missing", len(ctx.probes.missing))
        os.makedirs(OUT_DIR, exist_ok=True)
        suffix = "-smoke" if ctx.smoke else ""
        trace_file = os.path.join(OUT_DIR, f"trace-{ctx.workload}{suffix}.jsonl")
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in spans)
        document.update(
            layer_table=table,
            whole_section=ctx.layer_root == f"harness.{ctx.workload}",
            span_problems=validate_spans(spans),
            num_spans=len(spans),
            trace_file=os.path.relpath(trace_file, REPO_ROOT),
        )
    print(json.dumps(document))
    return 0


# ----------------------------------------------------------------------
# Parent side: spawn, collect, judge
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, tmp_root: str):
    """One workload in a fresh interpreter; its result document.

    Raises ``RuntimeError`` when the child dies without a result (it could
    not import the program, crashed outside a counted attempt, or hung).
    """
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--child", workload,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--trace", "1" if trace else "0",
        "--tmp", tmp,
        "--spawned-at", repr(time.monotonic()),
    ] + (["--smoke"] if smoke else [])
    started = time.monotonic()
    # A session of its own, so that a hung child can be killed together with
    # whatever it started (the daemon, pool workers).
    process = subprocess.Popen(
        command, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with code {process.returncode}")
    document = json.loads(lines[-1])
    document["elapsed_s"] = time.monotonic() - started
    return document


def apply_pins(document: Dict[str, object], seed: int, smoke: bool) -> None:
    """Compare the run's exact counts with ``expected.json`` (default seed
    only).  Each pinned count is one more check; a mismatch is a failure."""
    try:
        with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
    except OSError:
        return
    if seed != expected.get("seed"):
        return
    pinned = expected.get("smoke" if smoke else "full", {}).get(document["workload"], {})
    for name, value in pinned.items():
        got = document["counts"].get(name)
        if got is None:  # the probe that reads this count is missing
            continue
        document["attempted"] += 1
        if got != value:
            document["failed"] += 1
            document["failures"].append(f"pinned count {name}: got {got!r}, expected {value!r}")


def environment_stamp(seed: int) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    stamp = {
        "git_sha": sha,
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": {name: "1" for name in THREAD_ENV},
        "seed": seed,
        "load_avg_1min": load,
    }
    if load > nproc:
        stamp["warning"] = f"1-minute load average {load:.2f} exceeds nproc {nproc}; timings are suspect"
        print(f"WARNING: {stamp['warning']}", file=sys.stderr)
    return stamp


def run_set(args: argparse.Namespace, workloads: Sequence[str], traced: Sequence[bool],
            pinned: bool = True):
    """Every requested (workload, traced?) run, each in its own child;
    ``pinned=False`` skips the expected.json comparison (``--pin`` itself)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    runs: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp_root:
        for repeat in range(args.repeat):
            for workload in workloads:
                for trace in traced:
                    document = run_child(workload, args.seed, args.seconds, trace, args.smoke, tmp_root)
                    document["repeat"] = repeat
                    if pinned:
                        apply_pins(document, args.seed, args.smoke)
                    runs.append(document)
    return runs


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _units(spec) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _format(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) >= 1000 else f"{value:.4g}"


def print_run(document: Dict[str, object], units: Dict[str, str]) -> None:
    mode = "traced" if document["trace"] else "untraced"
    print(f"\n== {document['workload']} ({mode}, {document['elapsed_s']:.1f} s all-in) ==")
    for name, entry in document["metrics"].items():
        samples = f"  (n={entry['samples']})" if entry["samples"] != 1 else ""
        print(f"  {name:<40} {_format(entry['value']):>14} {units.get(name, '?'):<6}{samples}")
    share = document["failed"] / document["attempted"] if document["attempted"] else 1.0
    print(f"  {'failed_share':<40} {_format(share):>14} {'ratio':<6}"
          f"  ({document['failed']} of {document['attempted']})")
    for failure in document["failures"]:
        print(f"  FAILED  {failure}")
    for missing in document["probes_missing"]:
        print(f"  probe missing: {missing['probe']} ({missing['error']})")
    if document.get("span_problems"):
        print(f"  malformed trace: {document['span_problems'][:3]}")
    table = document.get("layer_table")
    if table:
        print(f"  layer self time under {table['wall_s']:.3f} s "
              f"({100 * table['attributed_share']:.1f}% attributed), {document['num_spans']} spans "
              f"-> {document['trace_file']}")
        for layer, row in table["layers"].items():
            print(f"    {layer:<14} {row['self_s']:>9.3f} s  {100 * row['share']:>5.1f}%")
        for stage, row in list(table["stages"].items())[:6]:
            print(f"      {stage:<34} {row['self_s']:>9.3f} s  {100 * row['share']:>5.1f}%")


def overhead_rows(runs: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """``trace_overhead_share`` per workload: traced over untraced timed
    section, minus one (needs both kinds of run in the set)."""
    walls: Dict[str, Dict[bool, List[float]]] = {}
    for document in runs:
        if not document.get("whole_section", True):
            continue  # the traced grid does its work twice on purpose
        wall = (
            document["layer_table"]["wall_s"] if document["trace"]
            else document["metrics"].get("wall_s", {}).get("value")
        )
        if wall:
            walls.setdefault(document["workload"], {}).setdefault(document["trace"], []).append(wall)
    return {
        workload: statistics.median(by[True]) / statistics.median(by[False]) - 1.0
        for workload, by in walls.items()
        if True in by and False in by
    }


def driver_line(document: Dict[str, object], spec) -> str:
    """The contract's result object for one run (see the module docstring)."""
    measured = {name: entry["value"] for name, entry in document["metrics"].items()}
    metrics: Dict[str, Dict[str, object]] = {}
    if document["trace"]:
        for metric in spec["per_layer"]:
            value = measured.get(metric["name"])
            metrics[metric["name"]] = {"value": value if value is not None else 0, "unit": metric["unit"]}
    else:
        wall = measured.get("wall_s") or 0.0
        for metric in spec["end_to_end"]:
            value = measured.get(metric["name"])
            if value is None:
                scale = 1000.0 if metric["unit"] == "ms" else 1.0
                value = wall * scale if metric["better"] == "lower" else (1.0 / wall if wall else 0.0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({
        "correct": document["failed"] == 0 and not document.get("span_problems"),
        "attempted": int(document["attempted"]),
        "failed": int(document["failed"]),
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _values(report: Dict[str, object]) -> Dict[tuple, List[float]]:
    values: Dict[tuple, List[float]] = {}
    for document in report["runs"]:
        if document["trace"]:
            continue
        for name, entry in document["metrics"].items():
            if entry["value"] is not None:
                values.setdefault((name, document["workload"]), []).append(float(entry["value"]))
    return values


def _spread(samples: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median; None below four samples."""
    if len(samples) < 4:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def compare(path_a: str, path_b: str, spec) -> int:
    """One row per (metric, workload): A's and B's medians, B over A, the
    bound and a verdict.  ``regressed``: B's median is worse than A's by
    more than the bound.  ``unresolved``: either side's run-to-run spread
    is wider than the bound, so nothing can be said — unless every B run
    beats every A run.  Exit code 1 on any ``regressed``."""
    with open(path_a, "r", encoding="utf-8") as handle:
        report_a = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        report_b = json.load(handle)
    a_values, b_values = _values(report_a), _values(report_b)
    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'metric':<30} {'workload':<16} {'A median':>12} {'B median':>12} {'B/A':>7} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for metric in spec["end_to_end"]:
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (metric["name"], workload)
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            med_a, med_b = statistics.median(a), statistics.median(b)
            lower = metric["better"] == "lower"
            worse_by = (med_b / med_a - 1.0) if lower else (med_a / med_b - 1.0)
            spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
            spread = max(spreads) if spreads else None
            b_always_better = max(b) < min(a) if lower else min(b) > max(a)
            if spread is not None and spread > metric["bound"] and not b_always_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            shown = "n/a" if spread is None else f"{spread:.3f}"
            print(f"{metric['name']:<30} {workload:<16} {_format(med_a):>12} {_format(med_b):>12} "
                  f"{med_b / med_a:>7.3f} {metric['bound']:>6.2f} {shown:>7}  {verdict}"
                  f"  (A n={len(a)}, B n={len(b)})")
    mismatched = _count_mismatches(report_a, report_b)
    for line in mismatched:
        print(f"exact count differs: {line}")
    print(f"\n{verdicts['ok']} ok, {verdicts['regressed']} regressed, "
          f"{verdicts['unresolved']} unresolved, {len(mismatched)} exact counts differ")
    return 1 if verdicts["regressed"] else 0


def _count_mismatches(report_a, report_b) -> List[str]:
    def counts(report):
        return {(d["workload"], d["trace"]): d["counts"] for d in report["runs"]}

    a, b = counts(report_a), counts(report_b)
    return [
        f"{workload} {name}: {a[(workload, trace)][name]!r} vs {b[(workload, trace)][name]!r}"
        for (workload, trace) in a
        if (workload, trace) in b
        for name in a[(workload, trace)]
        if name in b[(workload, trace)] and a[(workload, trace)][name] != b[(workload, trace)][name]
    ]


# ----------------------------------------------------------------------
# --pin
# ----------------------------------------------------------------------
def pin(args: argparse.Namespace, spec) -> int:
    """Re-measure the exact counts at the default seed and rewrite
    ``expected.json``.  The only way that file changes."""
    from_default = argparse.Namespace(**vars(args))
    from_default.repeat = 1
    names = [w["name"] for w in spec["workloads"]]
    expected: Dict[str, object] = {"seed": args.seed}
    for mode, smoke in (("full", False), ("smoke", True)):
        from_default.smoke = smoke
        runs = run_set(from_default, names, traced=(False,), pinned=False)
        bad = [d["workload"] for d in runs if d["failed"]]
        if bad:
            print(f"refusing to pin: {bad} failed their oracles", file=sys.stderr)
            return 1
        expected[mode] = {d["workload"]: d["counts"] for d in runs}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {sum(len(v) for v in expected['full'].values())} full-size counts "
          f"at seed {args.seed} -> {os.path.relpath(EXPECTED_PATH, REPO_ROOT)}")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]], spec) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=17, help="input seed (default 17, the pinned one)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="scales the repetition counts; the frozen sizes are for %(default)s")
    parser.add_argument("--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
                        help="0: untraced; 1: traced only; bare --trace: untraced, then traced")
    parser.add_argument("--repeat", type=int, default=1, help="run the whole set this many times")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (the tier-1 smoke test)")
    parser.add_argument("--json-out", help="also write the full report to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --json-out reports; exit 1 on a regression")
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json at --seed")
    parser.add_argument("--child", choices=names, help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.child:
        return child_main(args, spec)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.pin:
        return pin(args, spec)

    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    traced = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    stamp = environment_stamp(args.seed)
    started = time.perf_counter()
    try:
        runs = run_set(args, workloads, traced)
    except RuntimeError as error:
        # No result line: a run that could not finish must not look like one.
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 2
    units = _units(spec)
    for document in runs:
        print_run(document, units)
    overhead = overhead_rows(runs)
    for workload, share in overhead.items():
        print(f"trace_overhead_share {workload}: {share:+.4f}")
    print(f"\n{len(runs)} runs in {time.perf_counter() - started:.1f} s; "
          f"{sum(d['failed'] for d in runs)} failures; environment: {json.dumps(stamp)}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"environment": stamp, "smoke": args.smoke, "seconds": args.seconds,
                 "trace_overhead_share": overhead, "runs": runs},
                handle, indent=1,
            )
            handle.write("\n")
    if args.workload:
        print(driver_line(runs[0], spec))
    return 0 if all(d["failed"] == 0 for d in runs) or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
