"""Tests for the unified Session / ExperimentPlan / ResultSet API."""

import dataclasses
import json
import math

import pytest

from repro.errors import AnalysisError, BackendError, EngineError
from repro.session import (
    METRICS_ONLY,
    CacheStats,
    ExperimentPlan,
    PlannedRun,
    ResultSet,
    Session,
)

DATASETS = ["youtube", "pokec"]
SCALE = 0.08
SEED = 4


def _strip_wall(record):
    """Normalise away measured wall-clock time (the only nondeterministic field)."""
    return dataclasses.replace(record, wall_seconds=0.0)


@pytest.fixture
def session():
    return Session(scale=SCALE, seed=SEED)


class TestSessionCaching:
    def test_graph_loads_are_memoized(self, session):
        first = session.graph("youtube")
        second = session.graph("youtube")
        assert first is second
        stats = session.stats
        assert stats.graph_misses == 1
        assert stats.graph_hits == 1

    def test_registered_graphs_bypass_the_catalog(self, small_social_graph):
        session = Session(graphs={"custom": small_social_graph})
        assert session.graph("custom") is small_social_graph
        assert session.stats.graph_misses == 0

    def test_add_graph_rejects_non_graphs(self, session):
        with pytest.raises(AnalysisError):
            session.add_graph("bad", object())

    def test_partition_cache_hit_and_miss_accounting(self, session):
        first = session.partitioned("youtube", "2D", 4)
        second = session.partitioned("youtube", "2D", 4)
        assert first is second
        assert session.stats.partition_misses == 1
        assert session.stats.partition_hits == 1
        session.partitioned("youtube", "2D", 8)  # different granularity: a build
        session.partitioned("youtube", "DC", 4)  # different strategy: a build
        assert session.stats.partition_misses == 3
        assert session.num_cached_partitions == 3

    def test_partition_key_canonicalizes_strategy_names(self, session):
        assert session.partitioned("youtube", "rvc", 4) is session.partitioned(
            "youtube", "RVC", 4
        )
        assert session.stats.partition_misses == 1

    def test_is_partitioned_does_not_touch_stats(self, session):
        assert not session.is_partitioned("youtube", "2D", 4)
        session.partitioned("youtube", "2D", 4)
        assert session.is_partitioned("youtube", "2D", 4)
        assert session.stats.partition_hits == 0

    def test_invalid_partition_count_rejected(self, session):
        with pytest.raises(AnalysisError):
            session.partitioned("youtube", "2D", 0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(AnalysisError):
            Session(scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(AnalysisError, match="positive finite"):
            Session(scale=scale)

    def test_landmarks_are_memoized_and_deterministic(self, session):
        first = session.landmarks("youtube", 3)
        second = session.landmarks("youtube", 3)
        assert first is second
        assert len(first) == 3

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, True, 0])
    def test_landmark_count_must_be_a_positive_integer(self, session, count):
        with pytest.raises(EngineError, match="landmark count"):
            session.landmarks("youtube", count)
        with pytest.raises(EngineError, match="landmark count"):
            session.landmark_matrix("youtube", "2D", 4, count=count)

    def test_landmark_matrix_is_memoized_and_consistent(self, session):
        first = session.landmark_matrix("youtube", "2D", 4, count=3)
        second = session.landmark_matrix("youtube", "2D", 4, count=3)
        assert first is second
        # Built over the same landmark choices the session hands out.
        assert list(first.landmarks) == list(
            session.landmarks("youtube", 3, seed=session.seed + 7)
        )
        # A different seed is a different matrix.
        other = session.landmark_matrix("youtube", "2D", 4, count=3, seed=99)
        assert other is not first

    def test_registering_a_different_graph_evicts_its_placements(
        self, small_social_graph, small_road_graph
    ):
        session = Session()
        session.add_graph("custom", small_social_graph)
        stale = session.partitioned("custom", "2D", 4)
        session.landmarks("custom", 2)
        # Re-registering the same object keeps the cache...
        session.add_graph("custom", small_social_graph)
        assert session.is_partitioned("custom", "2D", 4)
        # ...but a different graph under the same name must not be served
        # stale placements, landmarks or metrics.
        session.add_graph("custom", small_road_graph)
        assert not session.is_partitioned("custom", "2D", 4)
        fresh = session.partitioned("custom", "2D", 4)
        assert fresh is not stale
        assert fresh.graph is small_road_graph
        assert session.landmarks("custom", 2) != []

    def test_adopt_graph_refuses_to_displace_a_different_graph(
        self, small_social_graph, small_road_graph
    ):
        session = Session()
        session.adopt_graph("custom", small_social_graph)
        session.adopt_graph("custom", small_social_graph)  # same object: no-op
        with pytest.raises(AnalysisError, match="different graph"):
            session.adopt_graph("custom", small_road_graph)
        assert session.graph("custom") is small_social_graph

    def test_engine_ready_materializes_derived_structures(self, session):
        plain = session.partitioned("youtube", "2D", 4)
        assert plain._triplets is None  # metrics-only: no engine state built
        ready = session.partitioned("youtube", "2D", 4, engine_ready=True)
        assert ready is plain
        assert ready._triplets is not None
        assert ready._routing is not None

    def test_clear_drops_cached_placements(self, session):
        session.partitioned("youtube", "2D", 4)
        session.clear()
        assert session.num_cached_partitions == 0
        assert not session.is_partitioned("youtube", "2D", 4)

    def test_stats_snapshot_is_plain_data(self, session):
        session.partitioned("youtube", "2D", 4)
        stats = session.stats
        assert isinstance(stats, CacheStats)
        assert stats.partition_builds == stats.partition_misses == 1
        assert stats.as_dict()["partition_misses"] == 1


class TestExperimentPlan:
    def test_cells_expand_dataset_major_then_granularity(self, session):
        cells = (
            session.plan()
            .datasets(DATASETS)
            .partitioners("RVC", "2D")
            .granularities(4, 8)
            .algorithms("PR")
            .cells()
        )
        assert len(cells) == 2 * 2 * 2
        assert all(isinstance(cell, PlannedRun) for cell in cells)
        assert [(c.dataset, c.num_partitions, c.partitioner) for c in cells[:4]] == [
            ("youtube", 4, "RVC"),
            ("youtube", 4, "2D"),
            ("youtube", 8, "RVC"),
            ("youtube", 8, "2D"),
        ]
        assert cells[0].partition_key == ("youtube", "RVC", 4, SCALE, SEED)

    def test_defaults_cover_paper_grid_metrics_only(self, session):
        cells = session.plan().cells()
        # 9 datasets x 2 granularities x 6 partitioners, no algorithm.
        assert len(cells) == 9 * 2 * 6
        assert all(cell.algorithm is None for cell in cells)

    def test_setters_validate_eagerly(self, session):
        plan = session.plan()
        with pytest.raises(AnalysisError):
            plan.datasets()
        with pytest.raises(AnalysisError):
            plan.granularities(0)
        with pytest.raises(AnalysisError):
            plan.algorithms("BFS")
        with pytest.raises(AnalysisError):
            plan.algorithms([])  # an empty list must not mean metrics-only
        with pytest.raises(BackendError):
            plan.backends("gpu")
        with pytest.raises(AnalysisError):
            plan.iterations(0)
        with pytest.raises(AnalysisError):
            plan.landmarks(0)
        with pytest.raises(AnalysisError):
            plan.run(workers=0)

    def test_algorithm_names_are_canonicalized(self, session):
        plan = session.plan().datasets("youtube").algorithms("pagerank", "cc")
        assert [cell.algorithm for cell in plan.cells()[:2]] == ["PR", "PR"]
        assert {cell.algorithm for cell in plan.cells()} == {"PR", "CC"}

    def test_preview_counts_unique_triples_and_existing_cache(self, session):
        plan = (
            session.plan()
            .datasets("youtube")
            .partitioners("RVC", "2D")
            .granularities(4)
            .algorithms("PR", "CC")
        )
        preview = plan.preview()
        assert preview.num_cells == 4
        assert preview.unique_partitions == 2
        assert preview.partition_builds == 2
        assert preview.expected_cache_hits == 2
        session.partitioned("youtube", "RVC", 4)
        assert plan.preview().partition_builds == 1

    def test_metrics_only_run_records_no_execution(self, session):
        results = (
            session.plan().datasets("youtube").partitioners("RVC").granularities(4).run()
        )
        record = results[0]
        assert record.algorithm == METRICS_ONLY
        assert record.simulated_seconds == 0.0
        assert record.num_supersteps == 0
        assert record.metrics.comm_cost > 0

    def test_full_grid_partitions_each_triple_exactly_once(self, session):
        """Acceptance: a Figure 3-6 style grid builds each placement once."""
        results = (
            session.plan()
            .datasets(DATASETS)
            .partitioners("RVC", "2D")
            .granularities(4, 8)
            .algorithms("PR", "CC", "TR", "SSSP")
            .iterations(2)
            .landmarks(2)
            .run()
        )
        num_cells = 2 * 2 * 2 * 4
        unique_triples = 2 * 2 * 2
        assert len(results) == num_cells
        stats = session.stats
        assert stats.partition_misses == unique_triples
        assert stats.partition_hits == num_cells - unique_triples
        # Re-running the same grid is all cache hits.
        session.plan().datasets(DATASETS).partitioners("RVC", "2D").granularities(
            4, 8
        ).run()
        assert session.stats.partition_misses == unique_triples

    def test_parallel_run_matches_serial_run(self):
        def run(workers):
            session = Session(scale=SCALE, seed=SEED)
            return (
                session.plan()
                .datasets(DATASETS)
                .partitioners("RVC", "2D", "DC")
                .granularities(4, 8)
                .algorithms("PR", "CC")
                .iterations(2)
                .run(workers=workers)
            )

        serial = [_strip_wall(record) for record in run(1)]
        parallel = [_strip_wall(record) for record in run(4)]
        assert serial == parallel  # same records, same order

    def test_run_rejects_non_integer_workers(self, session):
        plan = session.plan().datasets("youtube").partitioners("2D").granularities(4)
        with pytest.raises(AnalysisError, match="integer"):
            plan.run(workers=2.5)
        with pytest.raises(AnalysisError, match="integer"):
            plan.run(workers="4")
        with pytest.raises(AnalysisError, match="integer"):
            plan.run(workers=True)  # bool would silently mean one worker

    def test_count_setters_reject_non_integers(self, session):
        # 2.5 iterations used to run 2, granularities(True) to plan one
        # partition, and a nan count to raise a bare ValueError.
        plan = session.plan()
        for configure in (
            lambda: plan.iterations(2.5),
            lambda: plan.iterations(float("nan")),
            lambda: plan.iterations(True),
            lambda: plan.granularities(True),
            lambda: plan.granularities(4, 8.0),
            lambda: plan.granularities(float("inf")),
            lambda: plan.landmarks(2.5),
            lambda: plan.landmarks(float("nan")),
        ):
            with pytest.raises(AnalysisError, match="must be an integer"):
                configure()

    def test_run_rejects_unknown_executor(self, session):
        plan = session.plan().datasets("youtube").partitioners("2D").granularities(4)
        with pytest.raises(AnalysisError, match="executor"):
            plan.run(executor="greenlet")

    def test_process_run_matches_serial_run(self):
        def run(**kwargs):
            session = Session(scale=SCALE, seed=SEED)
            return (
                session.plan()
                .datasets(DATASETS)
                .partitioners("RVC", "2D")
                .granularities(4)
                .algorithms("PR", "CC", "SSSP")
                .iterations(2)
                .landmarks(2)
                .run(**kwargs)
            )

        serial = [_strip_wall(record) for record in run()]
        parallel = [_strip_wall(record) for record in run(workers=2, executor="process")]
        assert serial == parallel  # same records, same order

    def test_process_run_shares_placements_through_the_store(self, tmp_path):
        session = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        results = (
            session.plan()
            .datasets("youtube")
            .partitioners("RVC", "2D")
            .granularities(4)
            .algorithms("PR", "CC")
            .iterations(2)
            .run(workers=2, executor="process")
        )
        assert len(results) == 4
        # The parent session absorbed the workers' cache accounting: a cold
        # process run must not read as "0 builds, 0 misses".
        stats = session.stats
        assert stats.partition_misses > 0
        assert stats.partition_builds == stats.disk_partition_misses >= 2
        # The workers persisted their artifacts into the shared store...
        info = session.store.info()
        assert info.placements == 2
        assert info.records == 4
        # ...so a fresh in-process rerun resumes entirely from disk.
        resumed = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        rerun = (
            resumed.plan()
            .datasets("youtube")
            .partitioners("RVC", "2D")
            .granularities(4)
            .algorithms("PR", "CC")
            .iterations(2)
            .run()
        )
        assert resumed.stats.partition_builds == 0
        assert resumed.stats.disk_record_hits == 4
        assert list(rerun) == list(results)

    def test_process_run_rejects_registered_graphs(self, small_social_graph):
        session = Session(scale=SCALE, seed=SEED)
        session.add_graph("custom", small_social_graph)
        plan = (
            session.plan().datasets("custom").partitioners("RVC", "2D").granularities(4)
        )
        with pytest.raises(AnalysisError, match="registered graph"):
            plan.run(workers=2, executor="process")
        # The rejection must not depend on grid size or worker count: a
        # single-cell plan (which executes in-process anyway) still raises.
        single = session.plan().datasets("custom").partitioners("2D").granularities(4)
        with pytest.raises(AnalysisError, match="registered graph"):
            single.run(workers=1, executor="process")

    def test_parallel_run_builds_each_triple_once(self):
        session = Session(scale=SCALE, seed=SEED)
        (
            session.plan()
            .datasets(DATASETS)
            .partitioners("RVC", "2D")
            .granularities(4)
            .algorithms("PR", "CC", "TR")
            .iterations(2)
            .run(workers=8)
        )
        assert session.stats.partition_misses == 2 * 2

    def test_partition_oblivious_backend_executes_once_per_dataset(self, session):
        results = (
            session.plan()
            .datasets("youtube")
            .partitioners("RVC", "2D", "DC")
            .granularities(4)
            .algorithms("PR")
            .backends("vectorized")
            .iterations(2)
            .run()
        )
        assert len(results) == 3
        assert {record.backend for record in results} == {"vectorized"}
        # One shared execution: identical measured wall time on every row.
        assert len({record.wall_seconds for record in results}) == 1

    def test_sssp_uses_plan_landmarks(self, session):
        results = (
            session.plan()
            .datasets("youtube")
            .partitioners("2D")
            .granularities(4)
            .algorithms("SSSP")
            .iterations(3)
            .landmarks(2)
            .run()
        )
        assert results[0].algorithm == "SSSP"
        assert results[0].simulated_seconds > 0


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        session = Session(scale=SCALE, seed=SEED)
        return (
            session.plan()
            .datasets(DATASETS)
            .partitioners("RVC", "2D")
            .granularities(4, 8)
            .algorithms("PR")
            .iterations(2)
            .run()
        )

    def test_sequence_protocol(self, results):
        assert len(results) == 8
        assert list(results)[0] is results[0]
        assert isinstance(results[:3], ResultSet)
        assert len(results[:3]) == 3

    def test_filter_by_fields_and_predicate(self, results):
        youtube = results.filter(dataset="youtube")
        assert len(youtube) == 4
        assert {record.dataset for record in youtube} == {"youtube"}
        coarse_2d = results.filter(partitioner="2D", num_partitions=4)
        assert len(coarse_2d) == 2
        fast = results.filter(lambda r: r.simulated_seconds > 0, partitioner=("RVC", "2D"))
        assert len(fast) == 8

    def test_filter_accepts_metric_names_and_aliases(self, results):
        assert len(results.filter(partitions=4)) == 4
        positive = results.filter(lambda r: True, comm_cost=results[0].metrics.comm_cost)
        assert all(r.metrics.comm_cost == results[0].metrics.comm_cost for r in positive)

    def test_group_by_preserves_order(self, results):
        grouped = results.group_by("dataset")
        assert list(grouped) == DATASETS
        assert all(isinstance(subset, ResultSet) for subset in grouped.values())
        assert sum(len(subset) for subset in grouped.values()) == len(results)

    def test_best_minimises_the_requested_field(self, results):
        best = results.best()
        assert best.simulated_seconds == min(r.simulated_seconds for r in results)
        lowest_cut = results.best(by="cut")
        assert lowest_cut.metrics.cut == min(r.metrics.cut for r in results)

    def test_best_of_empty_set_rejected(self):
        with pytest.raises(AnalysisError):
            ResultSet().best()

    def test_pivot_builds_two_axis_table(self, results):
        table = results.filter(num_partitions=4).pivot()
        assert set(table) == set(DATASETS)
        assert set(table["youtube"]) == {"RVC", "2D"}
        assert table["youtube"]["2D"] > 0

    def test_pivot_rejects_ambiguous_cells(self, results):
        with pytest.raises(AnalysisError):
            results.pivot()  # two granularities collapse onto one cell

    def test_json_round_trip(self, results):
        restored = ResultSet.from_json(results.to_json())
        assert restored == results
        assert restored[0].backend == "reference"
        assert restored[0].wall_seconds == results[0].wall_seconds

    def test_from_json_rejects_bad_payloads(self):
        with pytest.raises(AnalysisError):
            ResultSet.from_json("{not json")
        with pytest.raises(AnalysisError):
            ResultSet.from_json(json.dumps({"not": "a list"}))

    def test_save_and_load_file_round_trip(self, results, tmp_path):
        path = tmp_path / "grid.json"
        results.save(path)
        assert ResultSet.load(path) == results

    def test_to_rows_matches_record_rows(self, results):
        rows = results.to_rows()
        assert len(rows) == len(results)
        assert rows[0]["dataset"] == results[0].dataset
