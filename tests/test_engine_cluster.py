"""Unit tests for the simulated cluster configuration."""

import math

import pytest

from repro.engine.cluster import STORAGE_BANDWIDTH_BYTES, ClusterConfig, paper_cluster
from repro.errors import EngineError


class TestClusterConfig:
    def test_paper_cluster_matches_evaluation_setup(self):
        cluster = paper_cluster()
        assert cluster.num_executors == 4
        assert cluster.cores_per_executor == 32
        assert cluster.network_gbps == 1.0
        assert cluster.storage == "hdd"

    def test_network_bandwidth_conversion(self):
        assert paper_cluster(network_gbps=1.0).network_bytes_per_second == pytest.approx(1.25e8)
        assert paper_cluster(network_gbps=40.0).network_bytes_per_second == pytest.approx(5e9)

    def test_storage_bandwidth_lookup(self):
        assert paper_cluster(storage="hdd").storage_bytes_per_second == STORAGE_BANDWIDTH_BYTES["hdd"]
        assert paper_cluster(storage="ssd").storage_bytes_per_second == STORAGE_BANDWIDTH_BYTES["ssd"]

    def test_partition_to_executor_round_robin(self):
        cluster = ClusterConfig(num_executors=4, cores_per_executor=2)
        assert [cluster.executor_of_partition(p) for p in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {field: value}
            for field in ("num_executors", "cores_per_executor")
            for value in (2.5, math.nan, math.inf, True, 0)
        ]
        + [{"network_gbps": value} for value in (0.0, -1.0, math.nan, math.inf)]
        + [{"storage": "tape"}],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(EngineError, match=next(iter(kwargs))):
            ClusterConfig(**kwargs)
