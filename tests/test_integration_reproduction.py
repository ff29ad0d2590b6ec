"""Integration tests: the paper's headline findings at reduced scale.

These tests run the same sweeps as the benchmark harness but on much
smaller graphs, asserting the *shape* of the paper's results:

* Communication Cost is the strongest runtime predictor for PageRank
  (Figure 3) and remains strong for Connected Components and SSSP
  (Figures 4 and 6);
* the Cut metric predicts Triangle Count better than CommCost does
  (Figure 5), and TR is far less sensitive to the partitioner choice;
* finer granularity increases CommCost but by less than 2x (Table 2 vs 3);
* a faster network / SSD storage reduces PageRank time (Section 4).
"""

import pytest

from repro.analysis.correlation import correlation_table, correlation_with_time
from repro.analysis.results import group_by_dataset
from repro.engine.cluster import INFRASTRUCTURE_CONFIGS
from repro.session import Session

SCALE = 0.12
SEED = 9
DATASETS = ["roadnet-pa", "youtube", "pokec", "orkut", "follow-jul"]
PARTITIONERS = ["RVC", "1D", "2D", "CRVC", "SC", "DC"]


@pytest.fixture(scope="module")
def session():
    """One session for the module: every study shares its placements."""
    return Session(scale=SCALE, seed=SEED)


def _grid(session, num_partitions):
    return (
        session.plan()
        .datasets(DATASETS)
        .partitioners(PARTITIONERS)
        .granularities(num_partitions)
    )


def _study(algorithm, session, num_partitions=16, iterations=5):
    return (
        _grid(session, num_partitions)
        .algorithms(algorithm)
        .iterations(iterations)
        .landmarks(2, seed=SEED + 7)
        .run()
    )


@pytest.fixture(scope="module")
def pagerank_records(session):
    return _study("PR", session)


@pytest.fixture(scope="module")
def triangle_records(session):
    return _study("TR", session)


class TestFigure3PageRank:
    def test_comm_cost_is_a_strong_predictor(self, pagerank_records):
        correlation = correlation_with_time(pagerank_records, "comm_cost")
        assert correlation > 0.8

    def test_comm_cost_beats_balance_and_stdev(self, pagerank_records):
        table = correlation_table(pagerank_records)
        assert table["comm_cost"] >= table["balance"]
        assert table["comm_cost"] >= table["part_stdev"]

    def test_lower_comm_cost_is_faster_within_each_dataset(self, pagerank_records):
        for dataset, records in group_by_dataset(pagerank_records).items():
            per_partitioner = sorted(records, key=lambda r: r.metric("comm_cost"))
            assert (
                per_partitioner[0].simulated_seconds
                < per_partitioner[-1].simulated_seconds
            ), dataset


class TestFigure5TriangleCount:
    def test_cut_predicts_better_than_comm_cost(self, triangle_records):
        cut_corr = correlation_with_time(triangle_records, "cut")
        comm_corr = correlation_with_time(triangle_records, "comm_cost")
        assert cut_corr > comm_corr

    def test_partitioner_choice_matters_less_than_for_pagerank(
        self, triangle_records, pagerank_records
    ):
        def max_relative_spread(records):
            spreads = []
            for _, group in group_by_dataset(records).items():
                times = [r.simulated_seconds for r in group]
                spreads.append((max(times) - min(times)) / min(times))
            return max(spreads)

        assert max_relative_spread(triangle_records) < max_relative_spread(pagerank_records)


class TestGranularity:
    def test_finer_partitioning_raises_comm_cost_sublinearly(self, session):
        coarse = _grid(session, 16).run()
        fine = _grid(session, 32).run()
        assert len(fine) == len(DATASETS) * len(PARTITIONERS)
        for coarse_record, fine_record in zip(coarse, fine):
            assert (fine_record.dataset, fine_record.partitioner) == (
                coarse_record.dataset,
                coarse_record.partitioner,
            )
            assert fine_record.metrics.comm_cost >= coarse_record.metrics.comm_cost
            assert fine_record.metrics.comm_cost <= 2 * coarse_record.metrics.comm_cost

    def test_finer_partitioning_slows_down_pagerank(self, session, pagerank_records):
        fine_records = _study("PR", session, num_partitions=32)
        coarse_by_key = {(r.dataset, r.partitioner): r for r in pagerank_records}
        slower = sum(
            1
            for record in fine_records
            if record.simulated_seconds
            > coarse_by_key[(record.dataset, record.partitioner)].simulated_seconds
        )
        # PageRank is communication bound: finer granularity should slow
        # down the clear majority of (dataset, partitioner) combinations.
        assert slower >= 0.7 * len(fine_records)


class TestInfrastructure:
    def test_better_infrastructure_speeds_up_pagerank(self, session):
        plan = (
            session.plan()
            .datasets("follow-jul")
            .partitioners("2D")
            .granularities(16)
            .algorithms("PR")
            .iterations(5)
        )
        baseline, fast_network, fast_storage = (
            plan.cluster(cluster).run()[0].simulated_seconds
            for cluster in INFRASTRUCTURE_CONFIGS.values()
        )
        # At the reduced test scale the fixed per-superstep overheads
        # dominate, so the improvement is small but must be present and in
        # the right order; the full-scale benchmark shows the paper-sized
        # effect.
        assert 1.0 - fast_network / baseline > 0.01
        assert fast_storage <= fast_network


class TestCrossAlgorithmFindings:
    def test_best_partitioner_depends_on_algorithm(self, pagerank_records, triangle_records):
        from repro.analysis.results import best_partitioner_per_dataset

        pr_best = best_partitioner_per_dataset(pagerank_records)
        tr_best = best_partitioner_per_dataset(triangle_records)
        # The paper's core message: the best strategy for one algorithm is
        # not necessarily the best for another.
        assert pr_best != tr_best
