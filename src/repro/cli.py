"""Command-line interface: ``repro <command> ...`` or ``python -m repro.cli``.

Each sub-command's flags are declared beside its handler, in one
``@_command`` table.  ``--scale`` and ``--seed`` are valid before *and*
after the sub-command name.  A library failure
(:class:`~repro.errors.ReproError`) is one ``repro: error:`` line on
stderr with exit code 2, not a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .algorithms.registry import canonical_algorithm_name, run_algorithm
from .analysis.advisor import recommend_empirically, recommend_partitioner
from .analysis.correlation import correlation_table
from .analysis.results import best_partitioner_per_dataset
from .backends import available_backends, get_backend
from .datasets.catalog import PAPER_DATASET_NAMES, get_spec, load_dataset
from .datasets.characterization import build_table1, format_table1
from .engine.partitioned_graph import PartitionedGraph
from .errors import AnalysisError, ReproError
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


def _number(kind: type, low: float, high: float = math.inf, *, open_low: bool = False):
    """argparse type: a finite ``kind`` (``int`` or ``float``) in
    ``[low, high]``, or ``(low, high]`` with ``open_low``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        above = value > low if open_low else value >= low
        if not (above and value <= high) or value == math.inf:
            lower = f"{'>' if open_low else '>='} {low}"
            bound = lower if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    return parse


def _resolved(resolve: Callable[[str], str]):
    """argparse type: a name resolved by a library canonicaliser, whose
    :class:`ReproError` becomes a usage error ("rvc" -> "RVC")."""

    def parse(text: str) -> str:
        try:
            return resolve(text)
        except ReproError as error:
            raise argparse.ArgumentTypeError(str(error))

    return parse


#: Counts (partitions, iterations, workers, sizes): zero or negative
#: values would otherwise reach the library as empty or nonsense runs.
_COUNT = _number(int, 1)
_ALGORITHM_NAME = _resolved(canonical_algorithm_name)
_PARTITIONER_NAME = _resolved(canonical_partitioner_name)


class _Flag(NamedTuple):
    """One ``add_argument`` call of the command table."""

    names: Tuple[str, ...]
    options: Dict[str, Any]

    def but(self, **changes: Any) -> "_Flag":
        """This flag with some of its options replaced."""
        return _Flag(self.names, {**self.options, **changes})


def _flag(*names: str, **options: Any) -> _Flag:
    """A flag of the command table.  A callable ``choices`` is called when
    the parser is built, so backends registered after import are offered."""
    return _Flag(names, options)


_ALGORITHM = _flag(
    "--algorithm",
    type=_ALGORITHM_NAME,
    default="PR",
    help="PR, CC, TR or SSSP, case-insensitive; long forms such as PageRank "
    "are accepted (default: PR)",
)
_DATASETS = _flag("--datasets", nargs="*", default=None)
_PARTITIONERS = _flag(
    "--partitioners",
    nargs="+",
    type=_PARTITIONER_NAME,
    default=None,
    help="strategy names, case-insensitive (default: the paper's six)",
)
_PARTITIONS = _flag("--partitions", type=_COUNT, default=128)
_ITERATIONS = _flag(
    "--iterations",
    type=_COUNT,
    default=10,
    help="iteration budget per PageRank or CC run (default: 10)",
)
_ENGINE_WORKERS = _flag(
    "--engine-workers",
    type=_COUNT,
    default=None,
    help="shared-memory Pregel workers per engine run (default: serial); "
    "results are bit-identical at any worker count",
)
_CHUNK_EDGES = _flag(
    "--chunk-edges",
    type=_COUNT,
    default=None,
    help="edges per chunk when streaming shards — the peak-memory knob "
    "(default: the ooc module's chunk size)",
)
_CACHE_DIR = _flag(
    "--cache-dir",
    default=None,
    help="artifact store directory; placements, landmarks, cell records "
    "and shards kept there survive the process",
)

#: The command table, in ``--help`` order: (name, help, flags, handler).
_COMMANDS: List[Tuple[str, str, Tuple[_Flag, ...], Callable[[argparse.Namespace], int]]] = []


def _command(name: str, help: str, *flags: _Flag):
    """Register the decorated handler as sub-command ``name``."""

    def register(handler: Callable[[argparse.Namespace], int]):
        _COMMANDS.append((name, help, flags, handler))
        return handler

    return register


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` CLI from the command table.

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

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Cut to Fit: Tailoring the Partitioning to the Computation'",
        parents=[_global_flags(with_defaults=True)],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    global_flags = _global_flags(with_defaults=False)
    for name, help, flags, handler in _COMMANDS:
        command = subparsers.add_parser(name, help=help, parents=[global_flags])
        for names, options in flags:
            if callable(options.get("choices")):
                options = {**options, "choices": options["choices"]()}
            command.add_argument(*names, **options)
        command.set_defaults(handler=handler)
    return parser


@_command("characterize", "print the Table 1 dataset characterisation")
def _cmd_characterize(args: argparse.Namespace) -> int:
    rows = build_table1(scale=args.scale, seed=args.seed)
    print(format_table1(rows))
    return 0


def _plan(args: argparse.Namespace, store: Optional[str] = None):
    """The (session, plan) pair behind ``metrics``, in-memory ``run`` and
    ``sweep``; the caller adds the algorithm and backend axes."""
    session = Session(scale=args.scale, seed=args.seed, store=store)
    plan = (
        session.plan()
        .datasets(args.datasets or PAPER_DATASET_NAMES)
        .granularities(args.partitions)
    )
    if args.partitioners:
        plan.partitioners(args.partitioners)
    if "iterations" in args:  # run and sweep execute; metrics only partitions
        plan.iterations(args.iterations).engine_workers(args.engine_workers)
        plan.landmarks(SWEEP_LANDMARK_COUNT, seed=args.seed + 7)
    return session, plan


@_command(
    "metrics",
    "print Table 2/3 partitioning metrics",
    _PARTITIONS,
    _DATASETS,
    _PARTITIONERS,
)
def _cmd_metrics(args: argparse.Namespace) -> int:
    results = _plan(args)[1].run()
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
    from .ooc import DEFAULT_CHUNK_EDGES

    if not args.cache_dir:
        raise AnalysisError(
            "--out-of-core requires --cache-dir (shards are on-disk artifacts; "
            "pre-populate the store with 'repro ingest')"
        )
    if args.algorithm == "TR":
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
    partitioners = args.partitioners or PAPER_PARTITIONER_NAMES
    chunk_edges = args.chunk_edges or DEFAULT_CHUNK_EDGES
    session = Session(scale=args.scale, seed=args.seed, store=args.cache_dir)
    rows = []
    for dataset in args.datasets or PAPER_DATASET_NAMES:
        for partitioner in partitioners:
            sharded = session.sharded_partition(
                dataset, partitioner, args.partitions, chunk_edges=chunk_edges
            )
            result = run_algorithm(args.algorithm, sharded, num_iterations=args.iterations)
            simulated = result.simulated_seconds if result.report is not None else ""
            rows.append(
                {
                    "dataset": dataset,
                    "partitioner": partitioner,
                    "algorithm": args.algorithm,
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


@_command(
    "run",
    "run an algorithm sweep (Figures 3-6)",
    _ALGORITHM,
    _PARTITIONS,
    _DATASETS,
    _PARTITIONERS,
    _ITERATIONS,
    _flag(
        "--backend",
        default="reference",
        choices=available_backends,
        help="execution backend (reference = cost-model simulator)",
    ),
    _ENGINE_WORKERS,
    _flag(
        "--out-of-core",
        action="store_true",
        help="execute over memory-mapped shard artifacts instead of "
        "in-memory partitions (requires --cache-dir; PR/CC/SSSP on the "
        "reference backend; results are bit-identical)",
    ),
    _CACHE_DIR,
    _CHUNK_EDGES,
)
def _cmd_run(args: argparse.Namespace) -> int:
    if args.out_of_core:
        return _cmd_run_out_of_core(args)
    if args.cache_dir or args.chunk_edges:
        raise AnalysisError(
            "--cache-dir/--chunk-edges only apply to 'run' together with "
            "--out-of-core (use 'sweep' for cached in-memory grids)"
        )
    records = _plan(args)[1].algorithms(args.algorithm).backends(args.backend).run()
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


@_command(
    "sweep",
    "run a multi-algorithm x multi-granularity grid with one partition cache",
    _flag(
        "--algorithms",
        nargs="+",
        type=_ALGORITHM_NAME,
        default=["PR"],
        help="algorithms to execute per placement, case-insensitive; long "
        "forms such as PageRank are accepted (default: PR)",
    ),
    _PARTITIONS.but(
        nargs="+",
        default=[128, 256],
        help="granularities to sweep (default: the paper's 128 and 256)",
    ),
    _DATASETS,
    _PARTITIONERS,
    _ITERATIONS,
    _flag(
        "--backends",
        nargs="+",
        default=["reference"],
        choices=available_backends,
        help="execution backends to cover (default: reference)",
    ),
    _flag(
        "--workers",
        type=_COUNT,
        default=1,
        help="worker-pool size for cell execution (default: 1)",
    ),
    _flag(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="pool flavour behind --workers: 'thread' shares one in-memory "
        "session, 'process' runs cells on separate cores (default: thread)",
    ),
    _flag(
        "--dry-run",
        action="store_true",
        help="print the planned cells and cache-hit estimate without executing",
    ),
    _CACHE_DIR,
    _flag(
        "--resume",
        action="store_true",
        help="skip cells whose records are already in --cache-dir "
        "(requires --cache-dir; reuse is on by default when a cache "
        "directory is given — this flag makes it explicit)",
    ),
    _ENGINE_WORKERS,
)
def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.resume and not args.cache_dir:
        raise AnalysisError("--resume requires --cache-dir (there is no store to resume from)")
    session, plan = _plan(args, args.cache_dir)
    plan.algorithms(args.algorithms).backends(args.backends)
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


@_command(
    "ingest",
    "stream a graph into content-addressed shard artifacts",
    _flag(
        "edge_list",
        nargs="?",
        default=None,
        help="path to a SNAP-style edge-list file to ingest (omit to "
        "ingest a catalog dataset via --dataset, or --synthetic)",
    ),
    _flag(
        "--dataset",
        default=None,
        help="catalog dataset to ingest, or the dataset label for an "
        "edge-list / synthetic source (default: file name / 'synthetic')",
    ),
    _flag(
        "--synthetic",
        action="store_true",
        help="generate the edge stream instead of reading it "
        "(power-law endpoints; requires --vertices and --edges)",
    ),
    _flag("--vertices", type=_COUNT, default=None, help="vertex-id space size for --synthetic"),
    _flag("--edges", type=_COUNT, default=None, help="edge count for --synthetic"),
    _flag(
        "--skew",
        type=_number(float, 0, open_low=True),
        default=2.0,
        help="power-law skew for --synthetic; 1.0 is uniform (default: 2.0)",
    ),
    _flag(
        "--delimiter",
        default=None,
        help="field delimiter for edge-list files (default: any whitespace)",
    ),
    _flag(
        "--partitioner",
        type=_PARTITIONER_NAME,
        default="Greedy",
        help="streaming partitioning strategy (default: Greedy)",
    ),
    _PARTITIONS,
    _CHUNK_EDGES,
    _CACHE_DIR.but(required=True),
    _flag(
        "--force",
        action="store_true",
        help="rebuild the shard even when the store already has it",
    ),
)
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


@_command(
    "cache",
    "inspect or clear a persistent artifact store",
    _flag("action", choices=["info", "clear"]),
    _CACHE_DIR.but(required=True),
    _flag(
        "--kind",
        choices=["placements", "landmarks", "records", "shards"],
        default=None,
        help="restrict 'clear' to one artifact kind (default: all)",
    ),
)
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


@_command(
    "serve",
    "start the long-lived graph query daemon",
    _DATASETS.but(
        nargs="+",
        default=["youtube"],
        help="catalog datasets to preload and serve (default: youtube)",
    ),
    _flag(
        "--partitioner",
        type=_PARTITIONER_NAME,
        default="Hybrid",
        help="partitioning strategy for the served graphs (default: Hybrid)",
    ),
    _PARTITIONS.but(default=16),
    _flag("--host", default="127.0.0.1"),
    _flag(
        "--port",
        type=_number(int, 0, 65535),
        default=8571,
        help="TCP port to bind; 0 picks an ephemeral port (default: 8571)",
    ),
    _CACHE_DIR,
    _flag(
        "--landmarks",
        type=_COUNT,
        default=5,
        help="landmark count for the distance-estimate index (default: 5)",
    ),
    _ITERATIONS,
    _flag("--top-k", type=_COUNT, default=10, help="default k for /pagerank/top (default: 10)"),
    _flag(
        "--batch-window-ms",
        type=_number(int, 0),
        default=25,
        help="tick window within which concurrent exact-distance requests "
        "coalesce into one multi-source sweep (default: 25)",
    ),
    _flag(
        "--max-batch",
        type=_COUNT,
        default=256,
        help="flush a batch early once this many distinct sources are "
        "pending (default: 256)",
    ),
    _ENGINE_WORKERS,
)
def _cmd_serve(args: argparse.Namespace) -> int:
    # Import here: the daemon stack (asyncio server, batcher threads) is
    # irrelevant to every other sub-command.
    from .serve import GraphService, serve_forever

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


@_command(
    "advise",
    "recommend a partitioner",
    _flag("--dataset", required=True),
    _ALGORITHM,
    _PARTITIONS.but(default=None),
    _flag(
        "--backend",
        default=None,
        choices=available_backends,
        help="also execute the recommended configuration on this backend",
    ),
)
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
    are reported as one line on stderr with exit code 2.  ``--datasets``
    names are checked before dispatch, so a typo fails before any work —
    except out-of-core runs, which also serve shards ingested from edge
    lists under names the catalog lacks.
    """
    args = build_parser().parse_args(argv)
    try:
        if not getattr(args, "out_of_core", False):
            for name in getattr(args, "datasets", None) or ():
                get_spec(name)
        return args.handler(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
