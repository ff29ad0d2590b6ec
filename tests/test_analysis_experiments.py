"""The paper's studies as session plans: Tables 2-3, Figures 3-6 and Section 4."""

import pytest

from repro.analysis.results import best_partitioner_per_dataset
from repro.datasets.generators import social_graph
from repro.engine.cluster import INFRASTRUCTURE_CONFIGS
from repro.errors import AnalysisError, DatasetError
from repro.partitioning.registry import PAPER_PARTITIONER_NAMES
from repro.session import Session

DATASETS = ["youtube", "pokec"]
SCALE = 0.08
SEED = 4


def test_plan_defaults_cover_paper_setup():
    cells = Session().plan().algorithms("PR").cells()
    assert len({cell.dataset for cell in cells}) == 9
    assert {cell.num_partitions for cell in cells} == {128, 256}
    assert [cell.partitioner for cell in cells[:6]] == list(PAPER_PARTITIONER_NAMES)
    assert {cell.num_iterations for cell in cells} == {10}


@pytest.mark.parametrize(
    "configure",
    [
        lambda: Session().plan().granularities(0),
        lambda: Session(scale=0.0),
        lambda: Session().plan().iterations(0),
    ],
    ids=["num_partitions", "scale", "num_iterations"],
)
def test_invalid_settings_rejected(configure):
    with pytest.raises(AnalysisError):
        configure()


class TestPartitioningTables:
    def test_table_shape(self):
        results = (
            Session(scale=SCALE, seed=SEED).plan().datasets(DATASETS).granularities(8).run()
        )
        grouped = results.group_by("dataset")
        assert list(grouped) == DATASETS
        for rows in grouped.values():
            assert [r.partitioner for r in rows] == list(PAPER_PARTITIONER_NAMES)
            for record in rows:
                assert record.metrics.num_partitions == 8
                assert record.metrics.comm_cost + record.metrics.non_cut == (
                    record.metrics.total_replicas
                )

    def test_accepts_registered_graphs(self, small_social_graph):
        session = Session(graphs={"custom": small_social_graph})
        results = session.plan().datasets("custom").partitioners("RVC", "2D").granularities(4).run()
        assert [r.dataset for r in results] == ["custom", "custom"]
        assert results[0].metrics.num_edges == small_social_graph.num_edges

    def test_unknown_dataset_rejected(self, small_social_graph):
        session = Session(graphs={"a": small_social_graph})
        with pytest.raises(DatasetError):
            session.plan().datasets("a", "b").partitioners("RVC").granularities(4).run()

    def test_finer_granularity_does_not_decrease_comm_cost(self):
        plan = Session(scale=SCALE, seed=SEED).plan().datasets("pokec")
        coarse = plan.granularities(8).run()
        fine = plan.granularities(32).run()
        for coarse_record, fine_record in zip(coarse, fine):
            assert fine_record.metrics.comm_cost >= coarse_record.metrics.comm_cost


class TestAlgorithmFigures:
    @pytest.fixture(scope="class")
    def pr_records(self):
        return (
            Session(scale=SCALE, seed=SEED)
            .plan()
            .datasets(DATASETS)
            .partitioners("RVC", "2D", "DC")
            .granularities(8)
            .algorithms("PR")
            .iterations(3)
            .run()
        )

    def test_one_record_per_dataset_partitioner_pair(self, pr_records):
        assert len(pr_records) == len(DATASETS) * 3
        keys = {(r.dataset, r.partitioner) for r in pr_records}
        assert len(keys) == len(pr_records)

    def test_records_carry_metrics_and_time(self, pr_records):
        for record in pr_records:
            assert record.simulated_seconds > 0
            assert record.metrics.comm_cost > 0
            assert record.algorithm == "PR"
            assert record.num_partitions == 8

    def test_best_partitioner_extractable(self, pr_records):
        best = best_partitioner_per_dataset(pr_records)
        assert set(best) == set(DATASETS)
        assert all(p in {"RVC", "2D", "DC"} for p in best.values())
        per_dataset = pr_records.group_by("dataset")
        assert {d: rows.best().partitioner for d, rows in per_dataset.items()} == best

    @pytest.mark.parametrize("algorithm", ["SSSP", "TR"])
    def test_figure_plan_runs(self, algorithm):
        records = (
            Session(scale=SCALE, seed=SEED)
            .plan()
            .datasets("youtube")
            .partitioners("2D")
            .granularities(6)
            .algorithms(algorithm)
            .landmarks(2)
            .run()
        )
        assert len(records) == 1
        assert records[0].algorithm == algorithm
        assert records[0].simulated_seconds > 0

    def test_registered_graph_runs_without_regenerating(self):
        graph = social_graph(num_vertices=80, num_edges=300, seed=1, name="custom")
        session = Session(graphs={"custom": graph})
        (record,) = (
            session.plan()
            .datasets("custom")
            .partitioners("RVC")
            .granularities(4)
            .algorithms("CC")
            .iterations(5)
            .run()
        )
        assert record.dataset == "custom"
        assert record.metrics.num_edges == graph.num_edges


def test_faster_infrastructure_reduces_simulated_time():
    plan = (
        Session(scale=SCALE, seed=SEED)
        .plan()
        .datasets("pokec")
        .partitioners("2D")
        .granularities(16)
        .algorithms("PR")
        .iterations(3)
    )
    assert [label.split()[0] for label in INFRASTRUCTURE_CONFIGS] == [
        "config-ii",
        "config-iii",
        "config-iv",
    ]
    baseline, fast_network, fast_storage = (
        plan.cluster(cluster).run()[0].simulated_seconds
        for cluster in INFRASTRUCTURE_CONFIGS.values()
    )
    assert fast_network < baseline
    assert fast_storage <= fast_network
