"""Command-line interface for the reproduction.

Provides nine sub-commands mirroring the evaluation workflow::

    python -m repro.cli characterize                 # Table 1
    python -m repro.cli metrics --partitions 128     # Table 2 / 3
    python -m repro.cli run --algorithm PR --partitions 128
    python -m repro.cli sweep --algorithms PR CC --partitions 128 256
    python -m repro.cli advise --dataset orkut --algorithm PR
    python -m repro.cli ingest --dataset pokec --cache-dir .repro-cache
    python -m repro.cli cache info --cache-dir .repro-cache
    python -m repro.cli serve --datasets youtube --partitions 16
    python -m repro.cli check --list-rules           # static analysis

``sweep`` is the grid front-end of the :mod:`repro.session` planner: it
covers multi-algorithm x multi-granularity grids with one shared
partition cache, supports ``--workers N`` with ``--executor
thread|process`` (threads share one in-memory session; processes ship
cells to worker interpreters for true multi-core execution), and
``--dry-run`` to print the planned cells and cache-hit estimate without
executing anything.  ``serve`` starts the long-lived query daemon of
:mod:`repro.serve`: preloaded partitioned graphs plus a
landmark-distance index answer distance / PageRank / component /
neighborhood queries over HTTP, with concurrent exact-distance requests
coalesced into single multi-source sweeps (with ``--cache-dir``,
restarts are warm).  ``--cache-dir DIR`` attaches a persistent
:class:`~repro.session.store.ArtifactStore`: placements, landmark
choices and completed cells survive the process, so repeating — or
resuming an interrupted — sweep re-runs only what is missing
(``--resume`` makes that expectation explicit and fails without a cache
directory).  ``ingest`` is the out-of-core front door of
:mod:`repro.ooc`: it streams an edge-list file, a catalog dataset or a
synthetic generator through a streaming partitioner in bounded chunks and
publishes the result as a content-addressed *shard* artifact — per-
partition edge files that later runs memory-map instead of loading, so
``repro run --out-of-core`` (PR/CC/SSSP on the reference backend)
executes graphs larger than RAM with bit-identical placements, vertex
values and superstep counters.  ``cache`` inspects (``info``) or empties
(``clear``) such a store, shards included.  ``check`` runs the project-native static analyser of
:mod:`repro.devtools` — the REP rules encoding the engine's invariants —
and exits 1 on any finding that is neither ``# repro: noqa[REP###]``
suppressed nor grandfathered in a ``--baseline`` JSON file.

All sub-commands accept ``--scale`` to shrink or grow the synthetic
datasets and ``--seed`` for reproducibility; both global flags are valid
before *and* after the sub-command name.  Library failures
(:class:`~repro.errors.ReproError`) are reported as a one-line message on
stderr with exit code 2 instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .algorithms.registry import run_algorithm
from .analysis.advisor import recommend_empirically, recommend_partitioner
from .analysis.correlation import correlation_table
from .analysis.results import best_partitioner_per_dataset
from .backends import available_backends, get_backend
from .datasets.catalog import PAPER_DATASET_NAMES, get_spec, load_dataset
from .datasets.characterization import build_table1, format_table1
from .engine.cluster import paper_cluster
from .engine.partitioned_graph import PartitionedGraph
from .errors import AnalysisError, PartitioningError, ReproError
from .metrics.report import format_metrics_table, format_table
from .partitioning.registry import PAPER_PARTITIONER_NAMES, canonical_partitioner_name
from .session import ArtifactStore, Session

__all__ = [
    "DEFAULT_ADVISE_PARTITIONS",
    "SWEEP_LANDMARK_COUNT",
    "main",
    "build_parser",
]

#: Partition count used by ``advise --backend`` when ``--partitions`` is omitted.
DEFAULT_ADVISE_PARTITIONS = 16

#: SSSP landmarks per dataset in ``repro run`` and ``repro sweep`` — the
#: paper's count — so the two front-ends report identical numbers for
#: identical cells.
SWEEP_LANDMARK_COUNT = 5


def _partitioner_name(name: str) -> str:
    """argparse type: resolve strategy names case-insensitively ("rvc" -> "RVC")."""
    try:
        return canonical_partitioner_name(name)
    except PartitioningError as error:
        raise argparse.ArgumentTypeError(str(error))


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (partition counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (a zero batch window flushes per tick)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rule_ids(text: str) -> List[str]:
    """argparse type: comma-separated REP rule ids ("rep001,REP004")."""
    ids = [part.strip().upper() for part in text.split(",") if part.strip()]
    if not ids:
        raise argparse.ArgumentTypeError("expected at least one rule id")
    for rule_id in ids:
        if not (rule_id.startswith("REP") and rule_id[3:].isdigit()):
            raise argparse.ArgumentTypeError(
                f"rule ids look like REP001, got {rule_id!r}"
            )
    return ids


def _port_number(text: str) -> int:
    """argparse type: a TCP port (0 asks the OS for an ephemeral one)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in [0, 65535], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` CLI.

    The global ``--scale``/``--seed`` flags live on parent parsers attached
    to the root *and* to every sub-command, so they are accepted both
    before and after the sub-command name (the later position wins).  The
    sub-command copies carry suppressed defaults — argparse parses a
    sub-command into a fresh namespace and copies it over the root's, so a
    real default there would clobber a value given before the sub-command.
    """

    def _global_flags(with_defaults: bool) -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument(
            "--scale",
            type=float,
            default=0.5 if with_defaults else argparse.SUPPRESS,
            help="dataset scale factor (default: 0.5)",
        )
        flags.add_argument(
            "--seed",
            type=int,
            default=0 if with_defaults else argparse.SUPPRESS,
            help="generator seed (default: 0)",
        )
        return flags

    root_flags = _global_flags(with_defaults=True)
    global_flags = _global_flags(with_defaults=False)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Cut to Fit: Tailoring the Partitioning to the Computation'",
        parents=[root_flags],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "characterize",
        help="print the Table 1 dataset characterisation",
        parents=[global_flags],
    )

    metrics_parser = subparsers.add_parser(
        "metrics", help="print Table 2/3 partitioning metrics", parents=[global_flags]
    )
    metrics_parser.add_argument("--partitions", type=_positive_int, default=128)
    metrics_parser.add_argument("--datasets", nargs="*", default=None)
    metrics_parser.add_argument(
        "--partitioners",
        nargs="+",
        type=_partitioner_name,
        default=None,
        help="strategy names, case-insensitive (default: the paper's six)",
    )

    run_parser = subparsers.add_parser(
        "run", help="run an algorithm sweep (Figures 3-6)", parents=[global_flags]
    )
    # type=str.upper runs before the choices check, so lowercase
    # abbreviations ("pr", "sssp") are accepted too.
    run_parser.add_argument(
        "--algorithm", default="PR", type=str.upper, choices=["PR", "CC", "TR", "SSSP"]
    )
    run_parser.add_argument("--partitions", type=_positive_int, default=128)
    run_parser.add_argument("--datasets", nargs="*", default=None)
    run_parser.add_argument(
        "--partitioners",
        nargs="+",
        type=_partitioner_name,
        default=None,
        help="strategy names, case-insensitive (default: the paper's six)",
    )
    # _positive_int (not bare int): --iterations 0 or negative would
    # otherwise silently produce empty or nonsense runs.
    run_parser.add_argument("--iterations", type=_positive_int, default=10)
    run_parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="execution backend (reference = cost-model simulator)",
    )
    run_parser.add_argument(
        "--engine-workers",
        type=_positive_int,
        default=None,
        help="shared-memory Pregel workers per run (default: serial); "
        "results are bit-identical at any worker count",
    )
    run_parser.add_argument(
        "--out-of-core",
        action="store_true",
        help="execute over memory-mapped shard artifacts instead of "
        "in-memory partitions (requires --cache-dir; PR/CC/SSSP on the "
        "reference backend; results are bit-identical)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact store holding (or receiving) the shards used by "
        "--out-of-core; pre-populate it with 'repro ingest'",
    )
    run_parser.add_argument(
        "--chunk-edges",
        type=_positive_int,
        default=None,
        help="edges per superstep chunk in --out-of-core execution "
        "(default: the ooc module's chunk size)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a multi-algorithm x multi-granularity grid with one partition cache",
        parents=[global_flags],
    )
    sweep_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["PR"],
        type=str.upper,
        choices=["PR", "CC", "TR", "SSSP"],
        help="algorithms to execute per placement (default: PR)",
    )
    sweep_parser.add_argument(
        "--partitions",
        nargs="+",
        type=_positive_int,
        default=[128, 256],
        help="granularities to sweep (default: the paper's 128 and 256)",
    )
    sweep_parser.add_argument("--datasets", nargs="*", default=None)
    sweep_parser.add_argument(
        "--partitioners",
        nargs="+",
        type=_partitioner_name,
        default=None,
        help="strategy names, case-insensitive (default: the paper's six)",
    )
    sweep_parser.add_argument("--iterations", type=_positive_int, default=10)
    sweep_parser.add_argument(
        "--backends",
        nargs="+",
        default=["reference"],
        choices=available_backends(),
        help="execution backends to cover (default: reference)",
    )
    # _positive_int (not bare int): a zero/negative pool size would
    # otherwise reach ThreadPoolExecutor as a crash or a silent no-op.
    sweep_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker-pool size for cell execution (default: 1)",
    )
    sweep_parser.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="pool flavour behind --workers: 'thread' shares one in-memory "
        "session, 'process' runs cells on separate cores (default: thread)",
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the planned cells and cache-hit estimate without executing",
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist placements, landmarks and completed cells to this "
        "directory and reuse them across invocations",
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells whose records are already in --cache-dir "
        "(requires --cache-dir; reuse is on by default when a cache "
        "directory is given — this flag makes it explicit)",
    )
    sweep_parser.add_argument(
        "--engine-workers",
        type=_positive_int,
        default=None,
        help="shared-memory Pregel workers within each cell (default: "
        "serial); composes with --workers, which parallelises across cells",
    )

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="stream a graph into content-addressed shard artifacts",
        parents=[global_flags],
    )
    ingest_parser.add_argument(
        "edge_list",
        nargs="?",
        default=None,
        help="path to a SNAP-style edge-list file to ingest (omit to "
        "ingest a catalog dataset via --dataset, or --synthetic)",
    )
    ingest_parser.add_argument(
        "--dataset",
        default=None,
        help="catalog dataset to ingest, or the dataset label for an "
        "edge-list / synthetic source (default: file name / 'synthetic')",
    )
    ingest_parser.add_argument(
        "--synthetic",
        action="store_true",
        help="generate the edge stream instead of reading it "
        "(power-law endpoints; requires --vertices and --edges)",
    )
    ingest_parser.add_argument(
        "--vertices",
        type=_positive_int,
        default=None,
        help="vertex-id space size for --synthetic",
    )
    ingest_parser.add_argument(
        "--edges",
        type=_positive_int,
        default=None,
        help="edge count for --synthetic",
    )
    ingest_parser.add_argument(
        "--skew",
        type=float,
        default=2.0,
        help="power-law skew for --synthetic; 1.0 is uniform (default: 2.0)",
    )
    ingest_parser.add_argument(
        "--delimiter",
        default=None,
        help="field delimiter for edge-list files (default: any whitespace)",
    )
    ingest_parser.add_argument(
        "--partitioner",
        type=_partitioner_name,
        default="Greedy",
        help="streaming partitioning strategy (default: Greedy)",
    )
    ingest_parser.add_argument("--partitions", type=_positive_int, default=128)
    ingest_parser.add_argument(
        "--chunk-edges",
        type=_positive_int,
        default=None,
        help="edges per ingest chunk — the peak-memory knob "
        "(default: the ooc module's chunk size)",
    )
    ingest_parser.add_argument(
        "--cache-dir",
        required=True,
        help="artifact store directory receiving the shard",
    )
    ingest_parser.add_argument(
        "--force",
        action="store_true",
        help="rebuild the shard even when the store already has it",
    )

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or clear a persistent artifact store",
        parents=[global_flags],
    )
    cache_parser.add_argument("action", choices=["info", "clear"])
    cache_parser.add_argument(
        "--cache-dir", required=True, help="artifact store directory"
    )
    cache_parser.add_argument(
        "--kind",
        choices=["placements", "landmarks", "records", "shards"],
        default=None,
        help="restrict 'clear' to one artifact kind (default: all)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="start the long-lived graph query daemon",
        parents=[global_flags],
    )
    serve_parser.add_argument(
        "--datasets",
        nargs="+",
        default=["youtube"],
        help="catalog datasets to preload and serve (default: youtube)",
    )
    serve_parser.add_argument(
        "--partitioner",
        type=_partitioner_name,
        default="Hybrid",
        help="partitioning strategy for the served graphs (default: Hybrid)",
    )
    serve_parser.add_argument("--partitions", type=_positive_int, default=16)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=_port_number,
        default=8571,
        help="TCP port to bind; 0 picks an ephemeral port (default: 8571)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact store for warm restarts: placements and landmark "
        "choices are reused across daemon starts",
    )
    serve_parser.add_argument(
        "--landmarks",
        type=_positive_int,
        default=5,
        help="landmark count for the distance-estimate index (default: 5)",
    )
    serve_parser.add_argument(
        "--iterations",
        type=_positive_int,
        default=10,
        help="PageRank iterations behind /pagerank/top (default: 10)",
    )
    serve_parser.add_argument(
        "--top-k",
        type=_positive_int,
        default=10,
        help="default k for /pagerank/top (default: 10)",
    )
    serve_parser.add_argument(
        "--batch-window-ms",
        type=_nonnegative_int,
        default=25,
        help="tick window within which concurrent exact-distance requests "
        "coalesce into one multi-source sweep (default: 25)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=_positive_int,
        default=256,
        help="flush a batch early once this many distinct sources are "
        "pending (default: 256)",
    )
    serve_parser.add_argument(
        "--engine-workers",
        type=_positive_int,
        default=None,
        help="shared-memory Pregel workers for exact-SSSP batch sweeps and "
        "lazy PageRank/component runs (default: serial)",
    )

    check_parser = subparsers.add_parser(
        "check",
        help="run the project-native static analyser (REP rules)",
        parents=[global_flags],
    )
    check_parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to check (default: src tests benchmarks "
        "examples under the current directory)",
    )
    check_parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="findings output format (default: text)",
    )
    check_parser.add_argument(
        "--baseline",
        default=None,
        help="JSON baseline of grandfathered findings; only findings not "
        "in the baseline fail the check",
    )
    check_parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    check_parser.add_argument(
        "--rule",
        action="append",
        type=_rule_ids,
        default=None,
        help="restrict to specific rule ids; comma-separated and "
        "repeatable (e.g. --rule REP001,REP004)",
    )
    check_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the id/severity/description table of every rule and exit",
    )
    check_parser.add_argument(
        "--output",
        default=None,
        help="also write the JSON findings document to this file "
        "(CI artifact), independent of --format",
    )
    check_parser.add_argument(
        "--statistics",
        action="store_true",
        help="report per-rule finding/file counts and parse/analysis wall "
        "time (text and JSON output)",
    )

    advise_parser = subparsers.add_parser(
        "advise", help="recommend a partitioner", parents=[global_flags]
    )
    advise_parser.add_argument("--dataset", required=True)
    advise_parser.add_argument("--algorithm", default="PR", type=str.upper)
    advise_parser.add_argument("--partitions", type=_positive_int, default=None)
    advise_parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="also execute the recommended configuration on this backend",
    )

    return parser


def _cmd_characterize(args: argparse.Namespace) -> int:
    rows = build_table1(scale=args.scale, seed=args.seed)
    print(format_table1(rows))
    return 0


def _grid_plan(args: argparse.Namespace):
    """The one-granularity plan behind ``metrics`` and in-memory ``run``."""
    plan = (
        Session(scale=args.scale, seed=args.seed)
        .plan()
        .datasets(args.datasets or PAPER_DATASET_NAMES)
        .granularities(args.partitions)
    )
    if args.partitioners:
        plan.partitioners(args.partitioners)
    return plan


def _cmd_metrics(args: argparse.Namespace) -> int:
    results = _grid_plan(args).run()
    table = {
        dataset: [record.metrics for record in subset]
        for dataset, subset in results.group_by("dataset").items()
    }
    print(format_metrics_table(table))
    return 0


def _cmd_run_out_of_core(args: argparse.Namespace) -> int:
    """``repro run --out-of-core``: execute over memory-mapped shards.

    Placements, vertex values and ``SuperstepRecord`` counters are
    bit-identical to the in-memory path; only the residency story changes
    (each partition's edges are a read-only mmap view, touched one chunk
    at a time and dropped after its superstep pass).
    """
    # Import here: the out-of-core stack is irrelevant to in-memory runs.
    from .algorithms.registry import canonical_algorithm_name
    from .ooc import DEFAULT_CHUNK_EDGES

    if not args.cache_dir:
        raise AnalysisError(
            "--out-of-core requires --cache-dir (shards are on-disk artifacts; "
            "pre-populate the store with 'repro ingest')"
        )
    algorithm = canonical_algorithm_name(args.algorithm)
    if algorithm == "TR":
        raise AnalysisError(
            "triangle counting materialises whole adjacency sets and is not "
            "available out-of-core; choose PR, CC or SSSP"
        )
    if args.backend != "reference":
        raise AnalysisError(
            "--out-of-core runs on the reference backend only "
            f"(got {args.backend!r})"
        )
    if args.engine_workers is not None:
        raise AnalysisError(
            "--engine-workers forks in-memory partitions and does not compose "
            "with --out-of-core (supersteps already stream one chunk at a time)"
        )
    datasets = list(args.datasets or PAPER_DATASET_NAMES)
    for name in datasets:
        get_spec(name)
    partitioners = args.partitioners or PAPER_PARTITIONER_NAMES
    chunk_edges = args.chunk_edges or DEFAULT_CHUNK_EDGES
    session = Session(scale=args.scale, seed=args.seed, store=args.cache_dir)
    rows = []
    for dataset in datasets:
        for partitioner in partitioners:
            sharded = session.sharded_partition(
                dataset, partitioner, args.partitions, chunk_edges=chunk_edges
            )
            result = run_algorithm(
                algorithm, sharded, num_iterations=args.iterations
            )
            simulated = (
                result.simulated_seconds if result.report is not None else ""
            )
            rows.append(
                {
                    "dataset": dataset,
                    "partitioner": partitioner,
                    "algorithm": algorithm,
                    "partitions": args.partitions,
                    "supersteps": result.num_supersteps,
                    "simulated_s": simulated,
                    "wall_s": result.wall_seconds,
                }
            )
            sharded.release()
    print(format_table(rows))
    print()
    stats = session.stats
    print(
        f"Shard store: {stats.disk_shard_hits} disk hits, "
        f"{stats.disk_shard_misses} misses, {stats.shard_builds} shard builds."
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.out_of_core:
        return _cmd_run_out_of_core(args)
    if args.cache_dir or args.chunk_edges:
        raise AnalysisError(
            "--cache-dir/--chunk-edges only apply to 'run' together with "
            "--out-of-core (use 'sweep' for cached in-memory grids)"
        )
    records = (
        _grid_plan(args)
        .algorithms(args.algorithm)
        .backends(args.backend)
        .iterations(args.iterations)
        .landmarks(SWEEP_LANDMARK_COUNT, seed=args.seed + 7)
        .cluster(paper_cluster())
        .engine_workers(args.engine_workers)
        .run()
    )
    print(format_table(records.to_rows()))
    print()
    if args.backend != "reference":
        # No cluster cost model: report measured wall-clock time instead of
        # simulated-time correlations.  Partition-oblivious backends execute
        # once per dataset (each partitioner row reuses that run), so count
        # and sum distinct executions only.
        if get_backend(args.backend).uses_partitioning:
            executions = [record.wall_seconds for record in records]
        else:
            per_dataset = {record.dataset: record.wall_seconds for record in records}
            executions = list(per_dataset.values())
        print(
            f"Backend {args.backend!r}: {len(executions)} executions in "
            f"{sum(executions):.3f}s wall-clock (no simulated cluster timing)."
        )
        return 0
    if len(records) < 2:
        print(f"No correlation of metrics with simulated time: {len(records)} run (needs 2+).")
    else:
        print("Correlation of metrics with simulated time:")
        for metric, value in correlation_table(records).items():
            print(f"  {metric:>12}: {value:+.2f}")
    best = best_partitioner_per_dataset(records)
    print("Best partitioner per dataset:")
    for dataset, partitioner in best.items():
        print(f"  {dataset:>16}: {partitioner}")
    return 0


def _build_sweep_plan(args: argparse.Namespace):
    """The (session, plan) pair behind ``repro sweep``."""
    if args.resume and not args.cache_dir:
        raise AnalysisError("--resume requires --cache-dir (there is no store to resume from)")
    datasets = list(args.datasets or PAPER_DATASET_NAMES)
    # Resolve names against the catalog up front so a typo fails loudly
    # even under --dry-run (which otherwise never touches the catalog).
    for name in datasets:
        get_spec(name)
    session = Session(scale=args.scale, seed=args.seed, store=args.cache_dir)
    plan = (
        session.plan()
        .datasets(datasets)
        .granularities(args.partitions)
        .algorithms(args.algorithms)
        .backends(args.backends)
        .iterations(args.iterations)
        .landmarks(SWEEP_LANDMARK_COUNT, seed=args.seed + 7)
        .engine_workers(args.engine_workers)
    )
    if args.partitioners:
        plan.partitioners(args.partitioners)
    return session, plan


def _cmd_sweep(args: argparse.Namespace) -> int:
    session, plan = _build_sweep_plan(args)
    preview = plan.preview()
    if args.dry_run:
        print(format_table([cell.as_row() for cell in preview.cells]))
        print()
        print(
            f"Planned {preview.num_cells} cells; {preview.unique_partitions} unique "
            f"(dataset, partitioner, partitions) triples -> "
            f"{preview.partition_builds} partition builds, "
            f"{preview.expected_cache_hits} partition-cache hits."
        )
        return 0
    results = plan.run(
        workers=args.workers,
        executor=args.executor,
        resume=True if args.resume else None,
    )
    print(format_table(results.to_rows()))
    print()
    stats = session.stats
    print(
        f"Partition cache: {stats.partition_builds} builds, "
        f"{stats.partition_hits} hits ({preview.num_cells} cells, "
        f"workers={args.workers}, executor={args.executor})."
    )
    if args.cache_dir:
        print(
            f"Artifact store: {stats.disk_hits} disk hits "
            f"({stats.disk_record_hits} records, {stats.disk_partition_hits} placements, "
            f"{stats.disk_landmark_hits} landmarks), {stats.disk_misses} disk misses; "
            f"{stats.disk_record_hits} of {preview.num_cells} cells resumed from "
            f"{args.cache_dir}."
        )
    # Only the reference simulator produces comparable simulated times.
    for algorithm, group in results.filter(backend="reference").group_by("algorithm").items():
        for partitions, slice_ in group.group_by("num_partitions").items():
            best = {
                dataset: subset.best().partitioner
                for dataset, subset in slice_.group_by("dataset").items()
            }
            print(f"Best partitioner per dataset [{algorithm} @ {partitions}]: {best}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    # Import here: the out-of-core stack is irrelevant to every other
    # sub-command (same pattern as the serve daemon).
    from .ooc import (
        DEFAULT_CHUNK_EDGES,
        EdgeListChunkSource,
        GraphChunkSource,
        SyntheticChunkSource,
    )
    from .ooc.ingest import ingest_source

    chunk_edges = args.chunk_edges or DEFAULT_CHUNK_EDGES
    if args.edge_list is not None and args.synthetic:
        raise AnalysisError("an edge-list path and --synthetic are mutually exclusive")
    if args.edge_list is not None:
        source = EdgeListChunkSource(
            args.edge_list,
            delimiter=args.delimiter,
            name=args.dataset or "",
            chunk_edges=chunk_edges,
        )
    elif args.synthetic:
        if args.vertices is None or args.edges is None:
            raise AnalysisError("--synthetic requires --vertices and --edges")
        source = SyntheticChunkSource(
            args.vertices,
            args.edges,
            seed=args.seed,
            skew=args.skew,
            name=args.dataset or "synthetic",
            chunk_edges=chunk_edges,
        )
    elif args.dataset:
        # Catalog datasets go through GraphChunkSource so the shard key —
        # (name, partitioner, partitions, scale, seed) — matches what
        # Session.sharded_partition computes, making this a warm-up for
        # 'repro run --out-of-core' against the same --cache-dir.
        get_spec(args.dataset)
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        source = GraphChunkSource(graph, chunk_edges=chunk_edges)
    else:
        raise AnalysisError(
            "nothing to ingest: give an edge-list path, --dataset NAME, "
            "or --synthetic --vertices N --edges M"
        )
    store = ArtifactStore(args.cache_dir)
    sharded, report = ingest_source(
        store,
        source,
        args.partitioner,
        args.partitions,
        scale=args.scale,
        seed=args.seed,
        chunk_edges=chunk_edges,
        force=args.force,
    )
    sharded.release()
    verb = "reused" if report.reused else "built"
    print(
        f"Ingested {report.dataset!r} with {report.partitioner} at "
        f"{report.num_partitions} partitions: {report.num_edges:,} edges, "
        f"{report.num_vertices:,} vertices, replication factor "
        f"{report.replication_factor:.2f} ({verb} shard in "
        f"{report.elapsed_seconds:.2f}s)."
    )
    disk = store.stats("shards")
    print(
        f"Shard store at {store.root}: {disk.hits} disk hits, "
        f"{disk.misses} misses."
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.cache_dir)
    if args.action == "info":
        info = store.info()
        print(f"Artifact store at {info.root}:")
        print(f"  placements: {info.placements}")
        print(f"  landmarks:  {info.landmarks}")
        print(f"  records:    {info.records}")
        print(f"  shards:     {info.shards}")
        print(f"  total:      {info.total_artifacts} artifacts, {info.total_bytes:,} bytes")
        return 0
    removed = store.clear(kind=args.kind)
    scope = args.kind or "all kinds"
    print(f"Removed {removed} artifacts ({scope}) from {store.root}.")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Import here: the daemon stack (asyncio server, batcher threads) is
    # irrelevant to every other sub-command.
    from .serve import GraphService, serve_forever

    for name in args.datasets:
        get_spec(name)
    session = Session(scale=args.scale, seed=args.seed, store=args.cache_dir)
    service = GraphService(
        session,
        datasets=args.datasets,
        partitioner=args.partitioner,
        num_partitions=args.partitions,
        landmark_count=args.landmarks,
        pagerank_iterations=args.iterations,
        engine_workers=args.engine_workers,
    )
    print(
        f"preloading {len(args.datasets)} dataset(s) with {args.partitioner} "
        f"at {args.partitions} partitions (scale={args.scale}, seed={args.seed})...",
        flush=True,
    )
    for row in service.preload():
        print(
            f"  {row['dataset']}: {row['vertices']:,} vertices, "
            f"{row['edges']:,} edges, {row['landmarks']} landmarks "
            f"({row['seconds']}s)",
            flush=True,
        )
    if args.cache_dir:
        stats = session.stats
        print(
            f"  artifact store {args.cache_dir}: {stats.disk_hits} disk hits, "
            f"{stats.disk_misses} misses",
            flush=True,
        )
    serve_forever(
        service,
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        top_k_default=args.top_k,
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # Import here: the static analyser is irrelevant to every other
    # sub-command (same pattern as the serve daemon).
    from .devtools import run_check

    # --rule is repeatable *and* comma-separated: flatten the lists.
    if args.rule is not None:
        args.rule = [rule_id for chunk in args.rule for rule_id in chunk]
    return run_check(args)


def _cmd_advise(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if args.partitions:
        recommendation = recommend_empirically(graph, args.algorithm, args.partitions)
    else:
        recommendation = recommend_partitioner(graph, args.algorithm)
    print(str(recommendation))
    if recommendation.candidates:
        for name, score in sorted(recommendation.candidates.items(), key=lambda kv: kv[1]):
            print(f"  {name:>8}: {score:,.0f}")
    if args.backend:
        num_partitions = args.partitions or DEFAULT_ADVISE_PARTITIONS
        default_note = "" if args.partitions else " (default)"
        pgraph = PartitionedGraph.partition(
            graph, recommendation.partitioner, num_partitions
        )
        result = run_algorithm(recommendation.algorithm, pgraph, backend=args.backend)
        timing = (
            f"simulated {result.simulated_seconds:.4f}s"
            if result.report is not None
            else "no simulated timing"
        )
        print(
            f"Executed {result.algorithm} with {recommendation.partitioner} at "
            f"{num_partitions} partitions{default_note} on backend "
            f"{result.backend!r}: {result.wall_seconds:.3f}s wall-clock, {timing}."
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (bad dataset name, misconfigured study, ...) all derive
    from :class:`ReproError`; they are user errors, not crashes, so they
    are reported as one line on stderr with exit code 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "characterize": _cmd_characterize,
        "metrics": _cmd_metrics,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "advise": _cmd_advise,
        "ingest": _cmd_ingest,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
