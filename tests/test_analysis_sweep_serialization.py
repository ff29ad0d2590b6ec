"""Tests for granularity sweeps over plans and result serialisation."""

import pytest

from repro.analysis.results import RunRecord
from repro.analysis.serialization import (
    load_records,
    metrics_from_dict,
    metrics_to_dict,
    record_from_dict,
    record_to_dict,
    report_to_dict,
    save_records,
)
from repro.algorithms.pagerank import pagerank
from repro.errors import AnalysisError
from repro.metrics.partition_metrics import compute_metrics
from repro.partitioning.registry import make_partitioner
from repro.session import METRICS_ONLY, Session


class TestGranularityPlans:
    """The partition-count axis of a plan: curves, winners and their guards."""

    @staticmethod
    def _plan(graph, counts, partitioners):
        session = Session(graphs={"social": graph})
        return session.plan().datasets("social").partitioners(partitioners).granularities(counts)

    def test_metrics_only_sweep(self, small_social_graph):
        results = self._plan(small_social_graph, [4, 8, 16], ["RVC", "DC"]).run()
        assert len(results) == 3 * 2
        assert {r.algorithm for r in results} == {METRICS_ONLY}
        curve = [
            (r.num_partitions, r.metrics.comm_cost) for r in results.filter(partitioner="RVC")
        ]
        assert [n for n, _ in curve] == [4, 8, 16]
        # CommCost grows (weakly) with the partition count.
        values = [v for _, v in curve]
        assert values == sorted(values)

    def test_sweep_with_algorithm_records_runtimes(self, small_social_graph):
        results = (
            self._plan(small_social_graph, [4, 8], ["RVC", "DC"])
            .algorithms("PR")
            .iterations(2)
            .run()
        )
        assert all(r.simulated_seconds > 0 for r in results)
        best = {n: rows.best().partitioner for n, rows in results.group_by("partitions").items()}
        assert set(best) == {4, 8}
        assert all(choice in {"RVC", "DC"} for choice in best.values())

    def test_best_partitioner_by_metric(self, small_social_graph):
        results = self._plan(small_social_graph, [8], ["RVC", "DC", "2D"]).run()
        by_hand = min(results, key=lambda r: r.metrics.comm_cost).partitioner
        assert results.best(by="comm_cost").partitioner == by_hand

    def test_best_by_seconds_without_algorithm_rejected(self, small_social_graph):
        results = self._plan(small_social_graph, [4], ["RVC", "DC"]).run()
        with pytest.raises(AnalysisError, match="social/RVC/4/METRICS/none"):
            results.best(by="seconds")
        with pytest.raises(AnalysisError, match="no cost-model time"):
            results.best()

    def test_best_by_seconds_on_a_backend_without_cost_model_rejected(
        self, small_social_graph
    ):
        results = (
            self._plan(small_social_graph, [4], ["RVC", "DC"])
            .algorithms("PR")
            .backends("vectorized")
            .iterations(2)
            .run()
        )
        assert {r.simulated_seconds for r in results} == {0.0}
        with pytest.raises(AnalysisError, match="social/DC/4/PR/vectorized"):
            results.best()
        # Other fields still rank, and filtering to the simulator recovers it.
        assert results.best(by="comm_cost").partitioner in {"RVC", "DC"}
        mixed = (
            self._plan(small_social_graph, [4], ["RVC", "DC"])
            .algorithms("PR")
            .backends("reference", "vectorized")
            .iterations(2)
            .run()
        )
        timed = mixed.filter(backend="reference")
        assert timed.best() == min(timed, key=lambda r: r.simulated_seconds)

    def test_rejection_counts_every_untimed_cell_but_names_five(self, small_social_graph):
        results = self._plan(small_social_graph, [4, 8, 16], ["RVC", "DC"]).run()
        with pytest.raises(AnalysisError) as caught:
            results.best()
        message = str(caught.value)
        assert "6 record(s)" in message
        assert message.count("/METRICS/none") == 5
        assert "16/METRICS/none, ..." in message

    def test_unknown_granularity_is_an_empty_slice(self, small_social_graph):
        results = self._plan(small_social_graph, [4], ["RVC"]).run()
        with pytest.raises(AnalysisError):
            results.filter(num_partitions=128).best(by="comm_cost")

    @pytest.mark.parametrize("counts", [[], [0], [-2]])
    def test_invalid_partition_counts_rejected(self, small_social_graph, counts):
        with pytest.raises(AnalysisError):
            self._plan(small_social_graph, counts, ["RVC"])


def _sample_record(graph, partitioner="CRVC", num_partitions=8):
    metrics = compute_metrics(make_partitioner(partitioner).assign(graph, num_partitions))
    return RunRecord(
        dataset="sample",
        partitioner=partitioner,
        num_partitions=num_partitions,
        algorithm="PR",
        metrics=metrics,
        simulated_seconds=0.1234,
        num_supersteps=11,
    )


class TestSerialization:
    def test_metrics_round_trip(self, small_social_graph):
        metrics = compute_metrics(make_partitioner("2D").assign(small_social_graph, 9))
        assert metrics_from_dict(metrics_to_dict(metrics)) == metrics

    def test_metrics_missing_field_rejected(self):
        with pytest.raises(AnalysisError):
            metrics_from_dict({"strategy": "RVC"})

    def test_record_round_trip(self, small_social_graph):
        record = _sample_record(small_social_graph)
        assert record_from_dict(record_to_dict(record)) == record

    def test_record_missing_field_rejected(self):
        with pytest.raises(AnalysisError):
            record_from_dict({"dataset": "x"})

    def test_save_and_load_records(self, tmp_path, small_social_graph):
        records = [_sample_record(small_social_graph, name) for name in ("RVC", "DC", "2D")]
        path = tmp_path / "runs.json"
        save_records(records, path)
        loaded = load_records(path)
        assert loaded == records

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError):
            load_records(path)

    def test_load_rejects_non_list_payload(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text("{}")
        with pytest.raises(AnalysisError):
            load_records(path)

    def test_save_to_missing_directory_rejected(self, tmp_path, small_social_graph):
        with pytest.raises(AnalysisError):
            save_records([_sample_record(small_social_graph)], tmp_path / "no-dir" / "x.json")

    def test_report_to_dict_totals_consistent(self, partitioned_social):
        result = pagerank(partitioned_social, num_iterations=3)
        payload = report_to_dict(result.report)
        assert payload["total_seconds"] == pytest.approx(result.simulated_seconds)
        assert len(payload["supersteps"]) == result.num_supersteps
        assert payload["cluster"]["num_executors"] == 4
        assert payload["total_messages"] == result.report.total_messages
