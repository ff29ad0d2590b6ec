"""Plan records against the per-cell loop they stand for.

Every table and figure of the paper is one slice of a
:meth:`Session.plan` grid.  These tests write the grid out by hand —
partition, measure, run, record, one cell at a time — and prove the plan
returns record-for-record the same results (measured wall-clock time
aside, which is timing noise by construction), and that plans sharing a
session build each placement once.
"""

import dataclasses

import pytest

from repro.algorithms.registry import run_algorithm
from repro.algorithms.shortest_paths import choose_landmarks
from repro.analysis.advisor import recommend_empirically
from repro.analysis.results import RunRecord
from repro.datasets.catalog import load_dataset
from repro.engine.cluster import INFRASTRUCTURE_CONFIGS, paper_cluster
from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import AnalysisError
from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.registry import make_partitioner
from repro.session import Session

SCALE = 0.08
SEED = 4
PARTITIONERS = ["RVC", "2D", "DC"]


def _strip_wall(record):
    return dataclasses.replace(record, wall_seconds=0.0)


def _direct_algorithm_loop(graphs, algorithm, num_partitions, num_iterations, landmark_count):
    """One algorithm over every (dataset, partitioner) cell, by hand."""
    records = []
    for dataset, graph in graphs.items():
        landmarks = None
        if algorithm == "SSSP":
            landmarks = choose_landmarks(graph, count=landmark_count, seed=SEED + 7)
        for partitioner in PARTITIONERS:
            pgraph = PartitionedGraph.partition(graph, partitioner, num_partitions)
            result = run_algorithm(
                algorithm,
                pgraph,
                num_iterations=num_iterations,
                landmarks=landmarks,
                cluster=paper_cluster(),
            )
            records.append(
                RunRecord(
                    dataset=dataset,
                    partitioner=partitioner,
                    num_partitions=num_partitions,
                    algorithm=algorithm,
                    metrics=pgraph.metrics,
                    simulated_seconds=result.simulated_seconds,
                    num_supersteps=result.num_supersteps,
                    backend=result.backend,
                    wall_seconds=result.wall_seconds,
                )
            )
    return records


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name, scale=SCALE, seed=SEED) for name in ("youtube", "pokec")}


def _algorithm_plan(session, graphs, algorithm, num_partitions=6, num_iterations=3):
    return (
        session.plan()
        .datasets(list(graphs))
        .partitioners(PARTITIONERS)
        .granularities(num_partitions)
        .algorithms(algorithm)
        .iterations(num_iterations)
    )


class TestAlgorithmPlans:
    @pytest.mark.parametrize("algorithm", ["PR", "CC", "SSSP", "TR"])
    def test_plan_matches_direct_loop(self, graphs, algorithm):
        direct = _direct_algorithm_loop(graphs, algorithm, 6, 3, landmark_count=2)
        session = Session(scale=SCALE, seed=SEED)
        planned = _algorithm_plan(session, graphs, algorithm).landmarks(2).run()
        assert [_strip_wall(r) for r in planned] == [_strip_wall(r) for r in direct]

    def test_plans_on_one_session_share_placements(self, graphs):
        session = Session(scale=SCALE, seed=SEED, graphs=graphs)
        _algorithm_plan(session, graphs, "PR", num_iterations=2).run()
        builds_after_first = session.stats.partition_misses
        assert builds_after_first == len(graphs) * len(PARTITIONERS)
        _algorithm_plan(session, graphs, "CC", num_iterations=2).run()
        assert session.stats.partition_misses == builds_after_first  # all cache hits

    def test_registered_graphs_are_served_at_their_own_scale(self, graphs):
        # The session's scale/seed only govern catalog loads; a registered
        # graph is used exactly as given.
        session = Session(scale=0.2, seed=0, graphs=graphs)
        records = _algorithm_plan(session, graphs, "PR", num_iterations=2).run()
        assert len(records) == len(graphs) * len(PARTITIONERS)
        for record in records:
            assert record.metrics.num_edges == graphs[record.dataset].num_edges

    def test_catalog_loads_follow_the_session_scale(self, graphs):
        session = Session(scale=0.2, seed=0)
        plan = session.plan().datasets("youtube").partitioners("2D").granularities(4)
        assert {(cell.scale, cell.seed) for cell in plan.cells()} == {(0.2, 0)}
        (record,) = plan.run()
        assert record.metrics.num_edges == load_dataset("youtube", scale=0.2, seed=0).num_edges
        assert record.metrics.num_edges != graphs["youtube"].num_edges


class TestMetricsPlans:
    def test_plan_matches_direct_loop(self, graphs):
        partitioners = ["RVC", "1D", "2D", "DC"]
        direct = {
            name: [compute_metrics(make_partitioner(p).assign(graph, 6)) for p in partitioners]
            for name, graph in graphs.items()
        }
        results = (
            Session(graphs=graphs).plan().datasets(list(graphs)).partitioners(partitioners)
            .granularities(6).run()
        )
        planned = {
            name: [record.metrics for record in rows]
            for name, rows in results.group_by("dataset").items()
        }
        assert planned == direct

    def test_repeated_dataset_reruns_cells_from_one_placement(self, graphs):
        session = Session(graphs=graphs)
        results = (
            session.plan().datasets("youtube", "youtube").partitioners("RVC", "2D")
            .granularities(4).run()
        )
        assert [r.partitioner for r in results] == ["RVC", "2D", "RVC", "2D"]
        assert list(results[:2]) == list(results[2:])
        assert session.stats.partition_misses == 2


class TestGranularityPlans:
    @staticmethod
    def _direct_loop(graph, counts, algorithm, num_iterations):
        points = []
        for num_partitions in counts:
            for name in PARTITIONERS:
                pgraph = PartitionedGraph.partition(graph, name, num_partitions)
                seconds = 0.0
                if algorithm is not None:
                    seconds = run_algorithm(
                        algorithm, pgraph, num_iterations=num_iterations
                    ).simulated_seconds
                points.append((name, num_partitions, pgraph.metrics, seconds))
        return points

    @pytest.mark.parametrize("algorithm", [None, "PR"])
    def test_plan_matches_direct_loop(self, small_social_graph, algorithm):
        counts = [4, 8]
        direct = self._direct_loop(small_social_graph, counts, algorithm, 2)
        results = (
            Session(graphs={"social": small_social_graph})
            .plan()
            .datasets("social")
            .partitioners(PARTITIONERS)
            .granularities(counts)
            .algorithms(algorithm)
            .iterations(2)
            .run()
        )
        observed = [
            (r.partitioner, r.num_partitions, r.metrics, r.simulated_seconds) for r in results
        ]
        assert observed == direct

    def test_a_narrower_plan_reuses_a_shared_session(self, small_social_graph):
        session = Session(graphs={"social": small_social_graph})
        session.plan().datasets("social").partitioners("RVC", "2D").granularities(4, 8).run()
        assert session.stats.partition_misses == 4
        # A second sweep over a subset: nothing new to partition.
        session.plan().datasets("social").partitioners("RVC").granularities(4).run()
        assert session.stats.partition_misses == 4

    def test_advisor_refuses_a_conflicting_graph_on_a_shared_session(
        self, small_social_graph, small_road_graph, monkeypatch
    ):
        # Two different graphs answering to the same name on one session
        # would silently cross-contaminate its placements.
        session = Session()
        monkeypatch.setattr(small_road_graph, "name", small_social_graph.name)
        recommend_empirically(
            small_social_graph, "PR", num_partitions=4, candidates=["RVC"], session=session
        )
        with pytest.raises(AnalysisError, match="different graph"):
            recommend_empirically(
                small_road_graph, "PR", num_partitions=4, candidates=["RVC"], session=session
            )


class TestInfrastructurePlans:
    """Section 4: one placement run on three simulated clusters."""

    @staticmethod
    def _run_configs(session):
        plan = (
            session.plan().datasets("youtube").partitioners("2D").granularities(8)
            .algorithms("PR").iterations(2)
        )
        return [plan.cluster(cluster).run()[0] for cluster in INFRASTRUCTURE_CONFIGS.values()]

    def test_configs_are_the_papers_three_clusters(self):
        assert list(INFRASTRUCTURE_CONFIGS.values()) == [
            paper_cluster(network_gbps=1.0, storage="hdd"),
            paper_cluster(network_gbps=40.0, storage="hdd"),
            paper_cluster(network_gbps=40.0, storage="ssd"),
        ]

    def test_cluster_loop_reuses_the_placement(self, graphs):
        session = Session(scale=SCALE, seed=SEED, graphs=graphs)
        first = self._run_configs(session)
        assert session.stats.partition_misses == 1
        second = self._run_configs(session)
        assert session.stats.partition_misses == 1
        assert [r.simulated_seconds for r in first] == [r.simulated_seconds for r in second]

    def test_only_the_simulated_time_depends_on_the_cluster(self, graphs):
        records = self._run_configs(Session(scale=SCALE, seed=SEED, graphs=graphs))
        assert len({r.simulated_seconds for r in records}) == len(INFRASTRUCTURE_CONFIGS)
        untimed = [_strip_wall(dataclasses.replace(r, simulated_seconds=0.0)) for r in records]
        assert untimed == [untimed[0]] * len(untimed)
