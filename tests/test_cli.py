"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_characterize_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.command == "characterize"
        assert args.scale == 0.5

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["--scale", "0.1", "run", "--algorithm", "CC", "--partitions", "16"]
        )
        assert args.algorithm == "CC"
        assert args.partitions == 16
        assert args.scale == 0.1

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "BFS"])

    def test_lowercase_algorithm_accepted(self):
        args = build_parser().parse_args(["run", "--algorithm", "sssp"])
        assert args.algorithm == "SSSP"
        args = build_parser().parse_args(["advise", "--dataset", "orkut", "--algorithm", "tr"])
        assert args.algorithm == "TR"

    def test_lowercase_partitioner_names_accepted(self):
        args = build_parser().parse_args(["metrics", "--partitioners", "rvc", "dC", "HYBRID"])
        assert args.partitioners == ["RVC", "DC", "Hybrid"]
        args = build_parser().parse_args(["run", "--partitioners", "2d", "crvc"])
        assert args.partitioners == ["2D", "CRVC"]

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--partitioners", "metis"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--partitioners", "rvc", "nope"])

    def test_partitioners_default_to_none(self):
        assert build_parser().parse_args(["metrics"]).partitioners is None
        assert build_parser().parse_args(["run"]).partitioners is None

    def test_empty_partitioners_flag_rejected(self):
        # A bare --partitioners (e.g. from an empty shell variable) must not
        # silently fall back to the full six-strategy study.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--partitioners"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--partitioners"])

    def test_backend_flag(self):
        args = build_parser().parse_args(["run", "--backend", "vectorized"])
        assert args.backend == "vectorized"
        args = build_parser().parse_args(["run"])
        assert args.backend == "reference"
        args = build_parser().parse_args(["advise", "--dataset", "orkut"])
        assert args.backend is None

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "gpu"])

    def test_global_flags_accepted_after_subcommand(self):
        args = build_parser().parse_args(["characterize", "--scale", "0.05"])
        assert args.scale == 0.05
        args = build_parser().parse_args(
            ["run", "--algorithm", "CC", "--scale", "0.1", "--seed", "3"]
        )
        assert args.scale == 0.1
        assert args.seed == 3

    def test_global_flags_after_subcommand_win(self):
        args = build_parser().parse_args(["--scale", "0.1", "metrics", "--scale", "0.2"])
        assert args.scale == 0.2

    def test_global_flag_before_subcommand_survives_subparse(self):
        args = build_parser().parse_args(["--seed", "7", "advise", "--dataset", "orkut"])
        assert args.seed == 7
        assert args.scale == 0.5  # untouched default

    def test_non_positive_partitions_rejected(self):
        for command in ("metrics", "run"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, "--partitions", "0"])
            assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "--dataset", "orkut", "--partitions", "-4"])

    def test_non_positive_iterations_rejected(self):
        # --iterations 0 / negative would silently produce empty or
        # nonsense runs; it must be rejected at parse time like --partitions.
        for args in (
            ["run", "--iterations", "0"],
            ["run", "--iterations", "-3"],
            ["sweep", "--iterations", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(args)
            assert excinfo.value.code == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.datasets == ["youtube"]
        assert args.partitioner == "Hybrid"
        assert args.port == 8571
        assert args.top_k == 10
        assert args.batch_window_ms == 25
        assert args.max_batch == 256
        assert args.cache_dir is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--datasets", "youtube", "pokec",
                "--partitioner", "hdrf", "--partitions", "32",
                "--port", "0", "--batch-window-ms", "0",
                "--top-k", "25", "--cache-dir", "/tmp/store",
            ]
        )
        assert args.datasets == ["youtube", "pokec"]
        assert args.partitioner == "HDRF"  # case-insensitive canonicalisation
        assert args.port == 0  # 0 = ephemeral port is allowed
        assert args.batch_window_ms == 0  # 0 = flush every tick is allowed
        assert args.top_k == 25
        assert args.cache_dir == "/tmp/store"

    def test_serve_invalid_flags_rejected(self):
        for flags in (
            ["serve", "--port", "65536"],
            ["serve", "--port", "-1"],
            ["serve", "--port", "http"],
            ["serve", "--top-k", "0"],
            ["serve", "--batch-window-ms", "-5"],
            ["serve", "--batch-window-ms", "fast"],
            ["serve", "--max-batch", "0"],
            ["serve", "--partitions", "0"],
            ["serve", "--landmarks", "0"],
            ["serve", "--iterations", "-1"],
            ["serve", "--partitioner", "metis"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(flags)
            assert excinfo.value.code == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.algorithms == ["PR"]
        assert args.partitions == [128, 256]
        assert args.backends == ["reference"]
        assert args.workers == 1
        assert args.dry_run is False
        assert args.executor == "thread"
        assert args.cache_dir is None
        assert args.resume is False

    def test_sweep_cache_and_executor_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--cache-dir", "/tmp/c", "--resume", "--executor", "process"]
        )
        assert args.cache_dir == "/tmp/c"
        assert args.resume is True
        assert args.executor == "process"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--executor", "greenlet"])

    def test_cache_subcommand_parsing(self):
        args = build_parser().parse_args(["cache", "info", "--cache-dir", "/tmp/c"])
        assert args.command == "cache"
        assert args.action == "info"
        assert args.cache_dir == "/tmp/c"
        args = build_parser().parse_args(
            ["cache", "clear", "--cache-dir", "/tmp/c", "--kind", "records"]
        )
        assert args.action == "clear"
        assert args.kind == "records"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "info"])  # --cache-dir is required
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "prune", "--cache-dir", "/tmp/c"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cache", "clear", "--cache-dir", "/tmp/c", "--kind", "everything"]
            )

    def test_sweep_grid_arguments(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--algorithms", "pr", "cc",
                "--partitions", "8", "16",
                "--partitioners", "rvc", "2d",
                "--workers", "4",
                "--dry-run",
            ]
        )
        assert args.algorithms == ["PR", "CC"]
        assert args.partitions == [8, 16]
        assert args.partitioners == ["RVC", "2D"]
        assert args.workers == 4
        assert args.dry_run is True

    def test_sweep_rejects_bad_grid_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--algorithms", "BFS"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--partitions", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--workers", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backends", "gpu"])


class TestCommands:
    def test_characterize_prints_table(self, capsys):
        exit_code = main(["--scale", "0.05", "characterize"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "roadnet-pa" in output
        assert "follow-dec" in output

    def test_characterize_scale_after_subcommand(self, capsys):
        exit_code = main(["characterize", "--scale", "0.05"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "follow-dec" in output

    def test_unknown_dataset_reports_one_line_error(self, capsys):
        exit_code = main(["--scale", "0.05", "run", "--datasets", "nosuch"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "nosuch" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1  # a single line on stderr

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_scale_is_a_usage_error(self, scale, capsys):
        exit_code = main(["--scale", scale, "characterize"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("repro: error: scale")
        assert captured.err.count("\n") == 1

    def test_retired_check_command_is_unknown(self, capsys):
        # `repro check` and its static analyser are gone: argparse rejects
        # the name as a usage error, with no traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["check"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "invalid choice: 'check'" in captured.err
        assert "Traceback" not in captured.err

    def test_metrics_unknown_dataset_reports_error(self, capsys):
        exit_code = main(["--scale", "0.05", "metrics", "--datasets", "nosuch"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("repro: error:")

    def test_serve_unknown_dataset_reports_one_line_error(self, capsys):
        # The catalog check fires before any graph is loaded or any socket
        # is bound, so a typo fails fast through the one-line error path.
        exit_code = main(["--scale", "0.05", "serve", "--datasets", "nosuch"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("repro: error:")
        assert "nosuch" in captured.err
        assert captured.err.count("\n") == 1

    def test_metrics_prints_partitioners(self, capsys):
        exit_code = main(
            ["--scale", "0.05", "metrics", "--partitions", "8", "--datasets", "youtube"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        for partitioner in ("RVC", "1D", "2D", "CRVC", "SC", "DC"):
            assert partitioner in output

    def test_run_prints_correlations_and_best(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "run",
                "--algorithm", "PR",
                "--partitions", "8",
                "--datasets", "youtube", "pokec",
                "--iterations", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Correlation of metrics" in output
        assert "Best partitioner per dataset" in output

    def test_run_single_cell_notes_no_correlation(self, capsys):
        # One record cannot be correlated: a one-line note replaces the
        # correlation block, and the command still succeeds.
        exit_code = main(
            [
                "run",
                "--datasets", "youtube",
                "--partitioners", "RVC",
                "--partitions", "4",
                "--scale", "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.err == ""
        assert "No correlation of metrics with simulated time: 1 run" in captured.out
        assert "Correlation of metrics" not in captured.out
        assert "Best partitioner per dataset" in captured.out

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_sweep_dry_run_rejects_non_finite_scale(self, scale, capsys):
        exit_code = main(
            ["sweep", f"--scale={scale}", "--dry-run", "--datasets", "youtube", "--partitions", "4"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("repro: error: scale")
        assert captured.out == ""

    def test_metrics_lowercase_partitioners(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "metrics",
                "--partitions", "8",
                "--datasets", "youtube",
                "--partitioners", "rvc", "dc",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "RVC" in output
        assert "DC" in output
        assert "CRVC" not in output  # only the requested strategies are studied

    def test_run_lowercase_partitioners(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "run",
                "--algorithm", "PR",
                "--partitions", "4",
                "--datasets", "youtube", "pokec",
                "--partitioners", "rvc", "2d",
                "--iterations", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2D" in output
        assert "Best partitioner per dataset" in output

    def test_run_lowercase_algorithm(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "run",
                "--algorithm", "cc",
                "--partitions", "4",
                "--datasets", "youtube",
                "--iterations", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "CC" in output

    def test_run_vectorized_backend(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "run",
                "--algorithm", "PR",
                "--partitions", "4",
                "--datasets", "youtube", "pokec",
                "--iterations", "2",
                "--backend", "vectorized",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "vectorized" in output
        assert "wall-clock" in output
        assert "Correlation of metrics" not in output

    def test_sweep_dry_run_prints_cells_without_executing(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "sweep",
                "--dry-run",
                "--datasets", "youtube", "pokec",
                "--partitioners", "2d", "dc",
                "--partitions", "4", "8",
                "--algorithms", "PR", "CC",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Planned 16 cells" in output
        assert "8 partition builds" in output
        assert "8 partition-cache hits" in output
        assert "seconds" not in output  # no results table: nothing executed

    def test_sweep_executes_grid_and_reports_cache(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "sweep",
                "--datasets", "youtube",
                "--partitioners", "2d", "dc",
                "--partitions", "4",
                "--algorithms", "PR", "CC",
                "--iterations", "2",
                "--workers", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        # 4 cells over 2 unique placements: the cache halves the partitioning.
        assert "Partition cache: 2 builds, 2 hits (4 cells, workers=2, executor=thread)." in output
        assert "Artifact store" not in output  # no --cache-dir: nothing persisted
        assert "Best partitioner per dataset [PR @ 4]" in output
        assert "Best partitioner per dataset [CC @ 4]" in output

    def test_sweep_unknown_dataset_reports_one_line_error(self, capsys):
        exit_code = main(["--scale", "0.05", "sweep", "--datasets", "nosuch"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "nosuch" in captured.err
        assert captured.err.count("\n") == 1

    def test_sweep_dry_run_rejects_unknown_dataset(self, capsys):
        # The dry run must not print a confident plan for a typo'd dataset.
        exit_code = main(["--scale", "0.05", "sweep", "--dry-run", "--datasets", "yuotube"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "yuotube" in captured.err
        assert "Planned" not in captured.out

    def test_sweep_with_cache_dir_resumes_second_invocation(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "--scale", "0.05",
            "sweep",
            "--datasets", "youtube",
            "--partitioners", "2d", "dc",
            "--partitions", "4",
            "--algorithms", "PR",
            "--iterations", "2",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Partition cache: 2 builds" in cold
        assert "0 disk hits" in cold

        # Second invocation: a fresh process-equivalent (new session) must
        # re-run nothing — every cell resumes from the store.
        assert main(argv + ["--resume"]) == 0
        warm = capsys.readouterr().out
        assert "Partition cache: 0 builds, 0 hits" in warm
        assert "2 disk hits (2 records" in warm
        assert "2 of 2 cells resumed" in warm
        # The resumed table reports the same simulated seconds.
        assert cold.splitlines()[2].split()[:8] == warm.splitlines()[2].split()[:8]

    def test_sweep_resume_without_cache_dir_fails(self, capsys):
        exit_code = main(["--scale", "0.05", "sweep", "--resume", "--datasets", "youtube"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--cache-dir" in captured.err

    def test_sweep_process_executor_smoke(self, capsys, tmp_path):
        exit_code = main(
            [
                "--scale", "0.05",
                "sweep",
                "--datasets", "youtube",
                "--partitioners", "2d", "dc",
                "--partitions", "4",
                "--algorithms", "PR",
                "--iterations", "2",
                "--workers", "2",
                "--executor", "process",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "executor=process" in output
        assert "Best partitioner per dataset [PR @ 4]" in output

    def test_cache_info_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(
            [
                "--scale", "0.05",
                "sweep",
                "--datasets", "youtube",
                "--partitioners", "2d",
                "--partitions", "4",
                "--algorithms", "PR",
                "--iterations", "2",
                "--cache-dir", cache_dir,
            ]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        info = capsys.readouterr().out
        assert "placements: 1" in info
        assert "records:    1" in info
        assert main(["cache", "clear", "--cache-dir", cache_dir, "--kind", "records"]) == 0
        assert "Removed 1 artifacts (records)" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "Removed 1 artifacts (all kinds)" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "total:      0 artifacts" in capsys.readouterr().out

    def test_sweep_sssp_matches_run_landmark_setup(self, capsys):
        # `sweep` and `run` must report identical simulated times for the
        # same SSSP cell (both use the paper's 5-landmark configuration).
        common = ["--scale", "0.05", "--seed", "3"]
        assert main(common + [
            "run", "--algorithm", "sssp", "--partitions", "4",
            "--datasets", "youtube", "--partitioners", "2d", "dc",
        ]) == 0
        run_out = capsys.readouterr().out
        assert main(common + [
            "sweep", "--algorithms", "sssp", "--partitions", "4",
            "--datasets", "youtube", "--partitioners", "2d", "dc",
        ]) == 0
        sweep_out = capsys.readouterr().out

        def seconds_of(output):
            lines = output.splitlines()
            header = next(line for line in lines if line.startswith("dataset"))
            column = header.split().index("seconds")
            row = next(line for line in lines if line.startswith("youtube"))
            return row.split()[column]

        assert seconds_of(run_out) == seconds_of(sweep_out)

    def test_advise_heuristic_mode(self, capsys):
        exit_code = main(["--scale", "0.05", "advise", "--dataset", "orkut", "--algorithm", "PR"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "[PR]" in output

    def test_advise_empirical_mode(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "advise",
                "--dataset", "roadnet-pa",
                "--algorithm", "TR",
                "--partitions", "8",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "cut" in output

    def test_advise_with_backend_runs_recommendation(self, capsys):
        exit_code = main(
            [
                "--scale", "0.05",
                "advise",
                "--dataset", "youtube",
                "--algorithm", "pr",
                "--partitions", "4",
                "--backend", "vectorized",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "[PR]" in output
        assert "backend 'vectorized'" in output
        assert "at 4 partitions" in output
        assert "(default)" not in output
        assert "wall-clock" in output

    def test_advise_backend_without_partitions_states_default(self, capsys):
        # Without --partitions the backend run must say which partition
        # count it fell back to instead of silently using 16.
        exit_code = main(
            [
                "--scale", "0.05",
                "advise",
                "--dataset", "youtube",
                "--algorithm", "pr",
                "--backend", "vectorized",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "at 16 partitions (default)" in output


class TestIngestAndOutOfCore:
    def test_ingest_parser_defaults(self):
        args = build_parser().parse_args(["ingest", "--cache-dir", "store"])
        assert args.command == "ingest"
        assert args.partitioner == "Greedy"
        assert args.partitions == 128
        assert args.edge_list is None and not args.synthetic

    def test_cache_kind_accepts_shards(self):
        args = build_parser().parse_args(
            ["cache", "clear", "--cache-dir", "d", "--kind", "shards"]
        )
        assert args.kind == "shards"

    def test_ingest_then_warm_out_of_core_run(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["--scale", "0.05", "--seed", "3"]
        exit_code = main(
            base
            + [
                "ingest",
                "--dataset", "youtube",
                "--partitioner", "Greedy",
                "--partitions", "4",
                "--cache-dir", store,
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "built shard" in output

        run = base + [
            "run",
            "--algorithm", "PR",
            "--out-of-core",
            "--datasets", "youtube",
            "--partitioners", "Greedy",
            "--partitions", "4",
            "--iterations", "2",
            "--cache-dir", store,
        ]
        assert main(run) == 0
        warm = capsys.readouterr().out
        assert "Shard store: 1 disk hits, 0 misses, 0 shard builds." in warm

    def test_ingest_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1\n1 2\n2 0\n")
        exit_code = main(
            [
                "ingest",
                str(path),
                "--dataset", "tiny",
                "--partitions", "2",
                "--cache-dir", str(tmp_path / "store"),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Ingested 'tiny'" in output
        assert "3 edges" in output

    def test_an_ingested_edge_list_runs_out_of_core_under_its_own_name(
        self, tmp_path, capsys
    ):
        path = tmp_path / "edges.txt"
        path.write_text("1000000000 2000000000\n2000000000 3000000000\n3000000000 1000000000\n")
        store = str(tmp_path / "store")
        exit_code = main(
            [
                "ingest",
                str(path),
                "--dataset", "sparse",
                "--partitioner", "2D",
                "--partitions", "2",
                "--cache-dir", store,
            ]
        )
        assert exit_code == 0
        capsys.readouterr()

        def run(dataset):
            return main(
                [
                    "run",
                    "--algorithm", "PR",
                    "--out-of-core",
                    "--datasets", dataset,
                    "--partitioners", "2D",
                    "--partitions", "2",
                    "--iterations", "2",
                    "--cache-dir", store,
                ]
            )

        assert run("sparse") == 0
        warm = capsys.readouterr().out
        assert "Shard store: 1 disk hits, 0 misses, 0 shard builds." in warm
        # Neither a shard nor a catalog entry: still a one-line error.
        assert run("nowhere") == 2
        assert "unknown dataset 'nowhere'" in capsys.readouterr().err

    def test_ingest_synthetic_requires_sizes(self, capsys):
        exit_code = main(["ingest", "--synthetic", "--cache-dir", "unused"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--vertices" in captured.err

    def test_out_of_core_requires_cache_dir(self, capsys):
        exit_code = main(["run", "--out-of-core"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--cache-dir" in captured.err

    def test_out_of_core_rejects_triangle_counting(self, capsys):
        exit_code = main(["run", "--algorithm", "TR", "--out-of-core", "--cache-dir", "d"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "PR, CC or SSSP" in captured.err

    def test_chunk_edges_without_out_of_core_is_an_error(self, capsys):
        exit_code = main(["run", "--chunk-edges", "64"])
        assert exit_code == 2
        assert "--out-of-core" in capsys.readouterr().err

    def test_cache_info_reports_shards(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(
            [
                "ingest",
                "--synthetic",
                "--vertices", "50",
                "--edges", "200",
                "--partitions", "2",
                "--cache-dir", store,
            ]
        )
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store]) == 0
        assert "shards:     1" in capsys.readouterr().out


#: ``repro --scale 0.05 metrics --datasets youtube --partitions 8``.
METRICS_GOLDEN = [
    "dataset  partitioner  balance  non_cut  cut  comm_cost  part_stdev",
    "-------  -----------  -------  -------  ---  ---------  ----------",
    "youtube  RVC          1.29     1        31   173        4.00      ",
    "youtube  1D           2.19     0        32   141        12.05     ",
    "youtube  2D           1.52     0        32   140        6.61      ",
    "youtube  CRVC         1.43     1        31   119        6.48      ",
    "youtube  SC           1.33     0        32   138        5.02      ",
    "youtube  DC           1.33     0        32   138        5.02      ",
    "",
]

#: ``repro --scale 0.05 run --datasets youtube --partitioners 2d dc
#: --partitions 8 --algorithm SSSP --iterations 2``; ``~`` marks the
#: measured wall-clock column, the one byte range that is not deterministic.
RUN_GOLDEN = [
    "dataset  partitioner  partitions  algorithm  comm_cost  cut  balance  seconds  wall_s  supersteps  backend  ",
    "-------  -----------  ----------  ---------  ---------  ---  -------  -------  ------  ----------  ---------",
    "youtube  2D           8           SSSP       140        32   1.52     0.02     ~~~~~~  6           reference",
    "youtube  DC           8           SSSP       138        32   1.33     0.02     ~~~~~~  6           reference",
    "",
    "Correlation of metrics with simulated time:",
    "     comm_cost: +1.00",
    "           cut: +0.00",
    "       non_cut: +0.00",
    "       balance: +1.00",
    "    part_stdev: +1.00",
    "Best partitioner per dataset:",
    "           youtube: DC",
    "",
]


def _mask_wall_clock(output):
    """Replace the ``wall_s`` cells of the leading table with ``~``."""
    header, rule, *rest = output.split("\n")
    start = header.index("wall_s")
    stop = start + len(rule[start:].split(" ")[0])
    for index, line in enumerate(rest):
        if not line:
            break
        rest[index] = line[:start] + "~" * (stop - start) + line[stop:]
    return "\n".join([header, rule, *rest])


class TestGoldenOutput:
    """Byte-for-byte stdout of the table commands, pinned across refactors."""

    def test_metrics_stdout(self, capsys):
        assert main(["--scale", "0.05", "metrics", "--datasets", "youtube", "--partitions", "8"]) == 0
        assert capsys.readouterr().out == "\n".join(METRICS_GOLDEN)

    def test_run_stdout(self, capsys):
        argv = [
            "--scale", "0.05",
            "run",
            "--datasets", "youtube",
            "--partitioners", "2d", "dc",
            "--partitions", "8",
            "--algorithm", "SSSP",
            "--iterations", "2",
        ]
        assert main(argv) == 0
        assert _mask_wall_clock(capsys.readouterr().out) == "\n".join(RUN_GOLDEN)

    def test_run_stdout_is_the_same_on_engine_workers(self, capsys):
        argv = [
            "--scale", "0.05",
            "run",
            "--datasets", "youtube",
            "--partitioners", "2d", "dc",
            "--partitions", "8",
            "--algorithm", "SSSP",
            "--iterations", "2",
            "--engine-workers", "2",
        ]
        assert main(argv) == 0
        assert _mask_wall_clock(capsys.readouterr().out) == "\n".join(RUN_GOLDEN)

    def test_metrics_rows_follow_the_partitioner_selection(self, capsys):
        argv = [
            "--scale", "0.05",
            "metrics",
            "--datasets", "youtube",
            "--partitions", "8",
            "--partitioners", "dc", "rvc",
        ]
        assert main(argv) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:] if line]
        golden = {line.split()[1]: line.split() for line in METRICS_GOLDEN[2:] if line}
        assert rows == [golden["DC"], golden["RVC"]]


#: Every sub-command's flags after ``--scale``/``--seed``: option strings,
#: dest, default, nargs, required, action class and choices.  Captured
#: from the hand-written parser that preceded the command table; the only
#: change since is that the algorithm flags resolve names through the
#: library's alias table instead of a fixed ``choices`` list.
BACKENDS = ["reference", "vectorized"]
PARSER_SURFACE = {
    "characterize": [],
    "metrics": [
        (("--partitions",), "partitions", 128, None, False, "_StoreAction", None),
        (("--datasets",), "datasets", None, "*", False, "_StoreAction", None),
        (("--partitioners",), "partitioners", None, "+", False, "_StoreAction", None),
    ],
    "run": [
        (("--algorithm",), "algorithm", "PR", None, False, "_StoreAction", None),
        (("--partitions",), "partitions", 128, None, False, "_StoreAction", None),
        (("--datasets",), "datasets", None, "*", False, "_StoreAction", None),
        (("--partitioners",), "partitioners", None, "+", False, "_StoreAction", None),
        (("--iterations",), "iterations", 10, None, False, "_StoreAction", None),
        (("--backend",), "backend", "reference", None, False, "_StoreAction", BACKENDS),
        (("--engine-workers",), "engine_workers", None, None, False, "_StoreAction", None),
        (("--out-of-core",), "out_of_core", False, 0, False, "_StoreTrueAction", None),
        (("--cache-dir",), "cache_dir", None, None, False, "_StoreAction", None),
        (("--chunk-edges",), "chunk_edges", None, None, False, "_StoreAction", None),
    ],
    "sweep": [
        (("--algorithms",), "algorithms", ["PR"], "+", False, "_StoreAction", None),
        (("--partitions",), "partitions", [128, 256], "+", False, "_StoreAction", None),
        (("--datasets",), "datasets", None, "*", False, "_StoreAction", None),
        (("--partitioners",), "partitioners", None, "+", False, "_StoreAction", None),
        (("--iterations",), "iterations", 10, None, False, "_StoreAction", None),
        (("--backends",), "backends", ["reference"], "+", False, "_StoreAction", BACKENDS),
        (("--workers",), "workers", 1, None, False, "_StoreAction", None),
        (
            ("--executor",), "executor", "thread", None, False, "_StoreAction",
            ["thread", "process"],
        ),
        (("--dry-run",), "dry_run", False, 0, False, "_StoreTrueAction", None),
        (("--cache-dir",), "cache_dir", None, None, False, "_StoreAction", None),
        (("--resume",), "resume", False, 0, False, "_StoreTrueAction", None),
        (("--engine-workers",), "engine_workers", None, None, False, "_StoreAction", None),
    ],
    "ingest": [
        ((), "edge_list", None, "?", False, "_StoreAction", None),
        (("--dataset",), "dataset", None, None, False, "_StoreAction", None),
        (("--synthetic",), "synthetic", False, 0, False, "_StoreTrueAction", None),
        (("--vertices",), "vertices", None, None, False, "_StoreAction", None),
        (("--edges",), "edges", None, None, False, "_StoreAction", None),
        (("--skew",), "skew", 2.0, None, False, "_StoreAction", None),
        (("--delimiter",), "delimiter", None, None, False, "_StoreAction", None),
        (("--partitioner",), "partitioner", "Greedy", None, False, "_StoreAction", None),
        (("--partitions",), "partitions", 128, None, False, "_StoreAction", None),
        (("--chunk-edges",), "chunk_edges", None, None, False, "_StoreAction", None),
        (("--cache-dir",), "cache_dir", None, None, True, "_StoreAction", None),
        (("--force",), "force", False, 0, False, "_StoreTrueAction", None),
    ],
    "cache": [
        ((), "action", None, None, True, "_StoreAction", ["info", "clear"]),
        (("--cache-dir",), "cache_dir", None, None, True, "_StoreAction", None),
        (
            ("--kind",), "kind", None, None, False, "_StoreAction",
            ["placements", "landmarks", "records", "shards"],
        ),
    ],
    "serve": [
        (("--datasets",), "datasets", ["youtube"], "+", False, "_StoreAction", None),
        (("--partitioner",), "partitioner", "Hybrid", None, False, "_StoreAction", None),
        (("--partitions",), "partitions", 16, None, False, "_StoreAction", None),
        (("--host",), "host", "127.0.0.1", None, False, "_StoreAction", None),
        (("--port",), "port", 8571, None, False, "_StoreAction", None),
        (("--cache-dir",), "cache_dir", None, None, False, "_StoreAction", None),
        (("--landmarks",), "landmarks", 5, None, False, "_StoreAction", None),
        (("--iterations",), "iterations", 10, None, False, "_StoreAction", None),
        (("--top-k",), "top_k", 10, None, False, "_StoreAction", None),
        (("--batch-window-ms",), "batch_window_ms", 25, None, False, "_StoreAction", None),
        (("--max-batch",), "max_batch", 256, None, False, "_StoreAction", None),
        (("--engine-workers",), "engine_workers", None, None, False, "_StoreAction", None),
    ],
    "advise": [
        (("--dataset",), "dataset", None, None, True, "_StoreAction", None),
        (("--algorithm",), "algorithm", "PR", None, False, "_StoreAction", None),
        (("--partitions",), "partitions", None, None, False, "_StoreAction", None),
        (("--backend",), "backend", None, None, False, "_StoreAction", BACKENDS),
    ],
}


#: The global flags every sub-command re-declares with suppressed defaults.
GLOBAL_FLAG_ROWS = [
    (("--scale",), "scale", argparse.SUPPRESS, None, False, "_StoreAction", None),
    (("--seed",), "seed", argparse.SUPPRESS, None, False, "_StoreAction", None),
]


def _parser_surface(parser):
    """Walk ``parser``'s sub-commands into ``PARSER_SURFACE``'s row format."""
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: [
            (
                tuple(action.option_strings), action.dest, action.default,
                action.nargs, action.required, type(action).__name__,
                None if action.choices is None else list(action.choices),
            )
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, command in subparsers.choices.items()
    }


class TestParserSurface:
    """The command table builds the hand-written parser's option slots,
    less the ten of the retired ``check`` command."""

    def test_sub_commands_in_help_order(self):
        assert list(_parser_surface(build_parser())) == list(PARSER_SURFACE)

    @pytest.mark.parametrize("command", list(PARSER_SURFACE))
    def test_flags_match_the_pinned_table(self, command):
        surface = _parser_surface(build_parser())
        assert surface[command] == GLOBAL_FLAG_ROWS + PARSER_SURFACE[command]

    def test_slot_count(self):
        slots = sum(len(rows) for rows in _parser_surface(build_parser()).values())
        assert slots == 72


class TestLibraryNameResolution:
    """Algorithm flags accept the library's aliases; unknown names are usage errors."""

    def test_run_accepts_long_form_algorithm(self):
        assert build_parser().parse_args(["run", "--algorithm", "pagerank"]).algorithm == "PR"

    def test_sweep_accepts_long_form_algorithms(self):
        args = build_parser().parse_args(["sweep", "--algorithms", "PageRank", "cc"])
        assert args.algorithms == ["PR", "CC"]

    def test_advise_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["advise", "--dataset", "orkut", "--algorithm", "BFS"])
        assert excinfo.value.code == 2


class TestSkewValidation:
    @pytest.mark.parametrize("skew", ["0", "-1", "nan", "inf"])
    def test_bad_skew_is_a_usage_error(self, skew, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "ingest", "--synthetic", "--vertices", "10", "--edges", "20",
                    "--skew", skew, "--cache-dir", str(tmp_path / "store"),
                ]
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--skew" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "store").exists()
