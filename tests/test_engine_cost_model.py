"""Unit tests for the cost model that converts counters into simulated time."""

import math

import pytest

from repro.engine.cluster import ClusterConfig, paper_cluster
from repro.engine.cost_model import CostModel, CostParameters
from repro.errors import EngineError


@pytest.fixture
def model(small_cluster):
    return CostModel(small_cluster, CostParameters())


class TestLoadTime:
    def test_scales_with_dataset_size(self, model):
        assert model.load_seconds(2_000_000) == pytest.approx(2 * model.load_seconds(1_000_000))

    def test_faster_on_ssd(self):
        hdd = CostModel(paper_cluster(storage="hdd"))
        ssd = CostModel(paper_cluster(storage="ssd"))
        assert ssd.load_seconds(10_000_000) < hdd.load_seconds(10_000_000)


class TestComputeTime:
    def test_balanced_tasks_use_all_cores(self, model):
        balanced = model.executor_compute_seconds([100.0] * 8)
        single = model.executor_compute_seconds([800.0] + [0.0] * 7)
        # Eight balanced tasks across 2 executors x 4 cores finish much
        # faster than one giant task that serialises on a single core.
        assert balanced < single

    def test_imbalance_increases_makespan(self, model):
        even = model.executor_compute_seconds([100.0, 100.0, 100.0, 100.0])
        skewed = model.executor_compute_seconds([340.0, 20.0, 20.0, 20.0])
        assert skewed > even

    def test_empty_superstep_costs_nothing_but_overhead(self, model):
        assert model.executor_compute_seconds([]) == 0.0


class TestNetworkTime:
    def test_remote_messages_cost_more_than_local(self, model):
        remote = model.network_seconds(1000, 0, 64_000)
        local = model.network_seconds(0, 1000, 0)
        assert remote > local

    def test_faster_network_reduces_transfer_time(self):
        slow = CostModel(paper_cluster(network_gbps=1.0))
        fast = CostModel(paper_cluster(network_gbps=40.0))
        assert fast.network_seconds(10_000, 0, 10_000 * 64) < slow.network_seconds(10_000, 0, 10_000 * 64)

    def test_ssd_reduces_shuffle_spill_time(self):
        hdd = CostModel(paper_cluster(storage="hdd"))
        ssd = CostModel(paper_cluster(storage="ssd"))
        assert ssd.network_seconds(10_000, 0, 10_000 * 64) < hdd.network_seconds(10_000, 0, 10_000 * 64)


class TestReports:
    def test_record_superstep_appends_and_totals(self, model):
        report = model.new_report()
        report.load_seconds = 0.5
        model.record_superstep(
            report,
            superstep=0,
            partition_units=[10.0, 20.0],
            messages_remote=100,
            messages_local=50,
            active_vertices=30,
            edges_scanned=200,
        )
        model.record_superstep(
            report,
            superstep=1,
            partition_units=[5.0, 5.0],
            messages_remote=10,
            messages_local=5,
            active_vertices=3,
            edges_scanned=20,
        )
        assert report.num_supersteps == 2
        assert report.total_messages == 165
        assert report.total_remote_messages == 110
        assert report.total_bytes == 110 * model.parameters.bytes_per_message
        assert report.total_seconds == pytest.approx(
            0.5
            + model.parameters.job_overhead_seconds
            + sum(record.total_seconds for record in report.supersteps)
        )
        assert report.compute_seconds > 0
        assert report.network_seconds > 0

    def test_superstep_time_has_barrier_floor(self, model):
        record = model.record_superstep(model.new_report(), 0, [0.0], 0, 0, 0, 0)
        assert record.total_seconds >= model.parameters.superstep_overhead_seconds

    def test_more_remote_messages_cost_more(self, model):
        report = model.new_report()
        light = model.record_superstep(report, 0, [1.0], 10, 0, 1, 1)
        heavy = model.record_superstep(report, 1, [1.0], 10_000, 0, 1, 1)
        assert heavy.total_seconds > light.total_seconds


class TestCostParameterValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {field: value}
            for field in (
                "seconds_per_compute_unit",
                "superstep_overhead_seconds",
                "spill_fraction",
                "bytes_per_message",
            )
            for value in (math.nan, math.inf, -1)
        ]
        + [{"bytes_per_message": value} for value in (2.5, True)],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(EngineError, match=next(iter(kwargs))):
            CostParameters(**kwargs)

    def test_zero_costs_are_allowed(self):
        assert CostParameters(spill_fraction=0.0, bytes_per_message=0).spill_fraction == 0.0
