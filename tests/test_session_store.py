"""Tests for the persistent on-disk artifact store and resumable sweeps."""

import dataclasses
import io
import json
import os

import numpy as np
import pytest

from repro.analysis.serialization import record_to_dict
from repro.errors import AnalysisError
from repro.partitioning.registry import available_partitioners, make_partitioner
from repro.session import ArtifactStore, Session, StoreInfo
from repro.session.store import STORE_FORMAT_VERSION, _canonical_key, as_store

DATASET = "youtube"
SCALE = 0.08
SEED = 4


def _strip_wall(record):
    return dataclasses.replace(record, wall_seconds=0.0)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture
def session(tmp_path):
    return Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")


def _grid(session, **run_kwargs):
    return (
        session.plan()
        .datasets(DATASET)
        .partitioners("RVC", "2D")
        .granularities(4)
        .algorithms("PR", "SSSP")
        .iterations(2)
        .landmarks(2)
        .run(**run_kwargs)
    )


class TestPlacementRoundTrip:
    @pytest.mark.parametrize("partitioner", available_partitioners())
    def test_every_registry_partitioner_round_trips_byte_identically(
        self, store, small_social_graph, partitioner
    ):
        assignment = make_partitioner(partitioner).assign(small_social_graph, 6)
        key = ArtifactStore.placement_key("small-social", partitioner, 6, 1.0, 0)
        store.save_placement(key, assignment.partition_of, assignment.strategy_name)
        loaded = store.load_placement(key)
        assert loaded is not None
        partition_of, strategy_name = loaded
        assert partition_of.dtype == np.int64
        assert np.array_equal(partition_of, assignment.partition_of)
        assert strategy_name == assignment.strategy_name

    @pytest.mark.parametrize("num_partitions", [1, 2, 256, 257, 70_000])
    def test_narrow_ids_round_trip_as_int64(self, store, num_partitions):
        partition_of = np.arange(1000, dtype=np.int64) % num_partitions
        partition_of[-1] = num_partitions - 1
        key = ArtifactStore.placement_key(DATASET, "RVC", num_partitions, SCALE, SEED)
        store.save_placement(key, partition_of, "RVC")
        with np.load(store._path("placements", key, ".npz")) as payload:
            assert payload["partition_of"].dtype == np.min_scalar_type(num_partitions - 1)
        loaded, _ = store.load_placement(key)
        assert loaded.dtype == np.int64
        assert np.array_equal(loaded, partition_of)

    def test_int64_artifact_still_loads(self, store):
        # Placements written before the narrow dtype stored int64 ids.
        key = ArtifactStore.placement_key(DATASET, "2D", 4, SCALE, SEED)
        partition_of = np.arange(10, dtype=np.int64) % 4
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            partition_of=partition_of,
            key=np.frombuffer(_canonical_key(key).encode("utf-8"), dtype=np.uint8),
            strategy_name=np.frombuffer(b"2D", dtype=np.uint8),
        )
        path = store._path("placements", key, ".npz")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(buffer.getvalue())
        loaded = store.load_placement(key)
        assert loaded is not None
        assert np.array_equal(loaded[0], partition_of)
        assert loaded[1] == "2D"
        assert store.stats("placements").hits == 1

    def test_missing_placement_is_a_counted_miss(self, store):
        key = ArtifactStore.placement_key(DATASET, "2D", 4, SCALE, SEED)
        assert store.load_placement(key) is None
        assert store.stats("placements").misses == 1
        assert store.stats("placements").hits == 0

    def test_truncated_placement_degrades_to_a_miss(self, store, small_social_graph):
        assignment = make_partitioner("2D").assign(small_social_graph, 4)
        key = ArtifactStore.placement_key("small-social", "2D", 4, 1.0, 0)
        store.save_placement(key, assignment.partition_of, assignment.strategy_name)
        path = store._path("placements", key, ".npz")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert store.load_placement(key) is None

    def test_garbage_placement_degrades_to_a_miss(self, store):
        key = ArtifactStore.placement_key(DATASET, "2D", 4, SCALE, SEED)
        path = store._path("placements", key, ".npz")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"this is not a zip archive")
        assert store.load_placement(key) is None

    def test_key_mismatch_degrades_to_a_miss(self, store, small_social_graph):
        # Simulate a filename/key collision: an artifact saved under one key
        # sitting at another key's path must never be served for it.
        assignment = make_partitioner("2D").assign(small_social_graph, 4)
        saved_key = ArtifactStore.placement_key("small-social", "2D", 4, 1.0, 0)
        store.save_placement(saved_key, assignment.partition_of, assignment.strategy_name)
        other_key = ArtifactStore.placement_key("other-dataset", "2D", 4, 1.0, 0)
        os.replace(
            store._path("placements", saved_key, ".npz"),
            store._path("placements", other_key, ".npz"),
        )
        assert store.load_placement(other_key) is None

    def test_version_bump_invalidates_old_artifacts(self, store, small_social_graph):
        assignment = make_partitioner("2D").assign(small_social_graph, 4)
        key = ArtifactStore.placement_key("small-social", "2D", 4, 1.0, 0)
        store.save_placement(key, assignment.partition_of, assignment.strategy_name)
        bumped = dict(key, version=STORE_FORMAT_VERSION + 1)
        assert store.load_placement(bumped) is None
        assert store.load_placement(key) is not None  # the old version still loads


class TestLandmarkAndRecordRoundTrip:
    def test_landmarks_round_trip(self, store):
        key = ArtifactStore.landmark_key(DATASET, 3, 11, SCALE, SEED)
        store.save_landmarks(key, [5, 9, 42])
        assert store.load_landmarks(key) == [5, 9, 42]

    def test_corrupt_landmarks_degrade_to_a_miss(self, store):
        key = ArtifactStore.landmark_key(DATASET, 3, 11, SCALE, SEED)
        store.save_landmarks(key, [5, 9, 42])
        path = store._path("landmarks", key, ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{broken")
        assert store.load_landmarks(key) is None

    def test_records_round_trip_identically(self, store, session):
        results = _grid(session)
        keys = [
            ArtifactStore.record_key(
                DATASET, record.partitioner, 4, record.algorithm, record.backend,
                2, SCALE, SEED,
            )
            for record in results
        ]
        for key, record in zip(keys, results):
            store.save_record(key, record)
        for key, record in zip(keys, results):
            loaded = store.load_record(key)
            assert loaded == record  # full dataclass equality, metrics included
            assert record_to_dict(loaded) == record_to_dict(record)

    def test_foreign_json_record_degrades_to_a_miss(self, store):
        key = ArtifactStore.record_key(DATASET, "2D", 4, "PR", "reference", 2, SCALE, SEED)
        path = store._path("records", key, ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"unexpected": "payload"}, handle)
        assert store.load_record(key) is None


class TestSessionDiskCache:
    def test_fresh_process_rehydrates_placements_without_building(self, tmp_path):
        first = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        built = first.partitioned(DATASET, "2D", 4)
        assert first.stats.partition_builds == 1
        assert first.stats.disk_partition_misses == 1

        second = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        rehydrated = second.partitioned(DATASET, "2D", 4)
        stats = second.stats
        assert stats.partition_misses == 1  # an L1 miss...
        assert stats.disk_partition_hits == 1  # ...answered by the disk L2
        assert stats.partition_builds == 0  # so nothing was partitioned
        assert np.array_equal(
            rehydrated.assignment.partition_of, built.assignment.partition_of
        )
        assert rehydrated.strategy_name == built.strategy_name
        assert rehydrated.metrics == built.metrics

    def test_landmarks_rehydrate_across_sessions(self, tmp_path):
        first = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        chosen = first.landmarks(DATASET, 3)
        second = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        assert second.landmarks(DATASET, 3) == chosen
        assert second.stats.disk_landmark_hits == 1

    def test_wrong_length_placement_degrades_to_a_rebuild(self, tmp_path):
        session = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        key = ArtifactStore.placement_key(DATASET, "2D", 4, SCALE, SEED)
        # A loadable npz whose array cannot describe this graph.
        session.store.save_placement(key, np.zeros(3, dtype=np.int64), "2D")
        pgraph = session.partitioned(DATASET, "2D", 4)
        assert pgraph.graph.num_edges == len(pgraph.assignment.partition_of)
        assert session.stats.partition_builds == 1  # rebuilt, not crashed
        assert session.stats.disk_partition_misses == 1

    def test_registered_graphs_never_touch_the_store(self, tmp_path, small_social_graph):
        session = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        session.add_graph("custom", small_social_graph)
        session.partitioned("custom", "2D", 4)
        session.landmarks("custom", 2)
        stats = session.stats
        assert stats.disk_hits == 0
        assert stats.disk_misses == 0
        assert session.store.info().total_artifacts == 0

    def test_store_accepts_path_or_instance_and_rejects_others(self, tmp_path):
        assert Session(store=None).store is None
        by_path = Session(store=tmp_path / "cache")
        assert isinstance(by_path.store, ArtifactStore)
        shared = ArtifactStore(tmp_path / "cache")
        assert Session(store=shared).store is shared
        with pytest.raises(AnalysisError):
            as_store(123)

    def test_store_root_must_be_a_directory(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        with pytest.raises(AnalysisError):
            ArtifactStore(target)


class TestResumableSweeps:
    def test_repeated_sweep_runs_nothing(self, tmp_path):
        """Acceptance: a repeated grid over the same store performs zero
        partition builds and zero algorithm re-runs."""
        first = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        results = _grid(first)
        assert first.stats.disk_record_hits == 0

        second = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        repeated = _grid(second)
        stats = second.stats
        assert stats.partition_builds == 0
        assert stats.partition_misses == 0  # no placement was even requested
        assert stats.disk_record_hits == len(results)
        assert stats.disk_record_misses == 0
        # Loaded verbatim: identical including measured wall seconds.
        assert list(repeated) == list(results)

    def test_resume_after_interrupt_reruns_only_missing_cells(self, tmp_path):
        completed = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        results = _grid(completed)
        # Simulate a mid-grid interrupt: drop two completed-cell records.
        record_dir = tmp_path / "cache" / "records"
        record_files = sorted(record_dir.iterdir())
        assert len(record_files) == len(results)
        for path in record_files[:2]:
            path.unlink()

        resumed_session = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        resumed = _grid(resumed_session, resume=True)
        stats = resumed_session.stats
        assert stats.disk_record_hits == len(results) - 2
        assert stats.disk_record_misses == 2  # only the missing cells re-ran
        assert stats.partition_builds == 0  # their placements came from disk
        assert [_strip_wall(r) for r in resumed] == [_strip_wall(r) for r in results]

    def test_resume_false_reexecutes_but_reuses_placements(self, tmp_path):
        first = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        results = _grid(first)
        second = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        rerun = _grid(second, resume=False)
        stats = second.stats
        assert stats.disk_record_hits == 0  # no record reuse requested
        assert stats.partition_builds == 0  # placements still rehydrated
        assert [_strip_wall(r) for r in rerun] == [_strip_wall(r) for r in results]

    def test_resume_requires_a_store(self):
        session = Session(scale=SCALE, seed=SEED)
        with pytest.raises(AnalysisError, match="artifact store"):
            _grid(session, resume=True)

    def test_changed_calibration_misses_stored_records(self, tmp_path):
        from repro.engine.cluster import ClusterConfig

        baseline = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        _grid(baseline)
        tweaked = Session(
            scale=SCALE,
            seed=SEED,
            store=tmp_path / "cache",
            cluster=ClusterConfig(network_gbps=40.0),
        )
        tweaked_results = _grid(tweaked)
        stats = tweaked.stats
        assert stats.disk_record_hits == 0  # different fingerprint: no reuse
        assert stats.disk_record_misses == len(tweaked_results)
        assert stats.partition_builds == 0  # placements are calibration-independent


class TestStoreMaintenance:
    def test_info_counts_artifacts_and_bytes(self, tmp_path):
        session = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        results = _grid(session)
        info = session.store.info()
        assert isinstance(info, StoreInfo)
        assert info.placements == 2  # two partitioners at one granularity
        assert info.landmarks == 1
        assert info.records == len(results)
        assert info.total_artifacts == 2 + 1 + len(results)
        assert info.total_bytes > 0
        assert info.as_dict()["records"] == len(results)

    def test_clear_by_kind_and_fully(self, tmp_path):
        session = Session(scale=SCALE, seed=SEED, store=tmp_path / "cache")
        results = _grid(session)
        store = session.store
        assert store.clear(kind="records") == len(results)
        assert store.info().records == 0
        assert store.info().placements == 2  # other kinds untouched
        assert store.clear() == 3  # two placements + one landmark set
        assert store.info().total_artifacts == 0

    def test_clear_unknown_kind_rejected(self, store):
        with pytest.raises(AnalysisError):
            store.clear(kind="everything")

    def test_removed_checks_kind_is_unknown(self, store):
        # The static checker no longer caches per-file results here.
        with pytest.raises(AnalysisError, match="checks"):
            store.stats("checks")
        with pytest.raises(AnalysisError, match="checks"):
            store.clear(kind="checks")
        assert "checks" not in store.info().as_dict()

    def test_clear_sweeps_orphaned_temp_files(self, store):
        # A writer killed between create and rename leaves a .part orphan;
        # it must not count as an artifact, but clear() must reclaim it.
        key = ArtifactStore.landmark_key(DATASET, 2, 7, SCALE, SEED)
        store.save_landmarks(key, [1, 2])
        orphan = os.path.join(store.root, "landmarks", ".tmp-1234-deadbeef.part")
        with open(orphan, "wb") as handle:
            handle.write(b"half-written")
        assert store.info().landmarks == 1  # the orphan is not an artifact
        assert store.clear() == 1
        assert not os.path.exists(orphan)

    def test_info_on_empty_store_directory(self, tmp_path):
        info = ArtifactStore(tmp_path / "never-written").info()
        assert info.total_artifacts == 0
        assert info.total_bytes == 0

    def test_artifacts_carry_umask_mode_not_mkstemp_0600(self, store):
        # Published artifacts must be as readable as a plain open() would
        # have made them (mkstemp's private 0600 would break shared caches).
        import stat

        umask = os.umask(0)
        os.umask(umask)  # reading the umask requires setting it
        key = ArtifactStore.landmark_key(DATASET, 2, 7, SCALE, SEED)
        store.save_landmarks(key, [1, 2])
        path = store._path("landmarks", key, ".json")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_shard_member_adoption_closes_it_and_removes_the_temp(
    tmp_path, store, monkeypatch
):
    def refuse(fd, *args, **kwargs):
        raise RuntimeError("fdopen failed")

    key = ArtifactStore.shard_key(DATASET, "2D", 4, SCALE, SEED)
    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fdopen", refuse)
    with pytest.raises(RuntimeError, match="fdopen failed"):
        with store.open_shard_member(key, "p00000.npy"):
            pass
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert list(tmp_path.rglob(".tmp-*.part")) == []
    assert not os.path.exists(store.shard_member_path(key, "p00000.npy"))
