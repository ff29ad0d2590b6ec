"""Simulated cluster topology.

The paper runs on a 5-node Spark cluster (1 driver + 4 executors, 32 cores
and 220 GB each) connected by 1 Gbps Ethernet, with two infrastructure
variants: a 40 Gbps network (configuration iii) and local SSD storage
(configuration iv).  :class:`ClusterConfig` captures exactly those knobs so
the cost model can reproduce the relative effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import EngineError, require_count

__all__ = [
    "ClusterConfig",
    "INFRASTRUCTURE_CONFIGS",
    "paper_cluster",
    "for_executor_map",
    "STORAGE_BANDWIDTH_BYTES",
]

#: Sequential read bandwidth per storage medium, bytes/second.
STORAGE_BANDWIDTH_BYTES = {
    "hdd": 150e6,
    "ssd": 500e6,
    "nvme": 2000e6,
}


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated Spark cluster."""

    num_executors: int = 4
    cores_per_executor: int = 32
    memory_gb_per_executor: float = 220.0
    network_gbps: float = 1.0
    storage: str = "hdd"
    name: str = "paper-cluster"

    def __post_init__(self) -> None:
        require_count(self.num_executors, "num_executors", 1, EngineError)
        require_count(self.cores_per_executor, "cores_per_executor", 1, EngineError)
        if not (math.isfinite(self.network_gbps) and self.network_gbps > 0):
            raise EngineError(
                f"network_gbps must be a positive finite number, got {self.network_gbps!r}"
            )
        if self.storage not in STORAGE_BANDWIDTH_BYTES:
            raise EngineError(
                f"unknown storage medium {self.storage!r}; "
                f"expected one of {sorted(STORAGE_BANDWIDTH_BYTES)}"
            )

    @property
    def network_bytes_per_second(self) -> float:
        """Point-to-point network bandwidth in bytes per second."""
        return self.network_gbps * 1e9 / 8.0

    @property
    def storage_bytes_per_second(self) -> float:
        """Sequential storage read bandwidth in bytes per second."""
        return STORAGE_BANDWIDTH_BYTES[self.storage]

    def executor_of_partition(self, partition_id: int) -> int:
        """Executor that hosts a given partition (round-robin placement)."""
        return partition_id % self.num_executors

    def executor_map(self, num_partitions: int) -> np.ndarray:
        """Executor of every partition id in ``[0, num_partitions)`` as an array.

        Cached per (cluster, partition count) so the engine's vectorised
        counters can index it every superstep for free.
        """
        return _executor_map(self.num_executors, num_partitions)


@lru_cache(maxsize=64)
def _executor_map(num_executors: int, num_partitions: int) -> np.ndarray:
    executors = np.arange(num_partitions, dtype=np.int64) % num_executors
    executors.setflags(write=False)
    return executors


def for_executor_map(kept, executor_of: np.ndarray, build):
    """``(key, build())`` for ``executor_of`` — or ``kept``, the pair made for
    the previous map, when that was the same map.  How a placement holds
    what depends on the cluster only through its executor map."""
    key = executor_of.tobytes()
    return kept if kept is not None and kept[0] == key else (key, build())


def paper_cluster(network_gbps: float = 1.0, storage: str = "hdd") -> ClusterConfig:
    """The 4-executor, 128-core cluster used throughout the paper's evaluation."""
    return ClusterConfig(
        num_executors=4,
        cores_per_executor=32,
        memory_gb_per_executor=220.0,
        network_gbps=network_gbps,
        storage=storage,
        name="paper-cluster",
    )


#: Section 4's infrastructure study, by label, in the paper's order:
#: configuration (ii) is the 1 Gbps / HDD baseline, (iii) upgrades the
#: network to 40 Gbps, (iv) also moves shuffle storage to local SSDs.
INFRASTRUCTURE_CONFIGS = {
    "config-ii (1 Gbps, HDD)": paper_cluster(network_gbps=1.0, storage="hdd"),
    "config-iii (40 Gbps, HDD)": paper_cluster(network_gbps=40.0, storage="hdd"),
    "config-iv (40 Gbps, SSD)": paper_cluster(network_gbps=40.0, storage="ssd"),
}
