"""Persistent on-disk artifact store: the session cache's L2.

A :class:`Session`'s in-memory caches die with the process, so every new
``repro sweep`` invocation used to rebuild all of the grid's partition
placements from scratch.  The :class:`ArtifactStore` persists the three
expensive artefact kinds across processes:

* **placements** — the ``partition_of`` array of an
  :class:`~repro.partitioning.base.EdgePartitionAssignment`, saved as a
  compressed ``.npz`` keyed by ``(dataset, partitioner, num_partitions,
  scale, seed)``;
* **landmarks** — deterministic SSSP landmark choices keyed by
  ``(dataset, count, seed, scale, session_seed)``;
* **records** — completed :class:`~repro.analysis.results.RunRecord`
  cells of an :class:`~repro.session.plan.ExperimentPlan` grid, which is
  what makes interrupted sweeps resumable.
* **shards** — out-of-core partition shards (see :mod:`repro.ooc`): a
  JSON manifest plus sidecar files — an uncompressed ``.vtx.npz`` vertex
  table and one plain ``.pNNNNN.npy`` per partition that the engine
  memory-maps at run time (``.npz`` members cannot be mmapped, so the
  edge data ships as raw ``.npy``).  Every member is stored in the
  narrowest integer dtype that holds it; the ``.npy`` headers say which,
  so shards written as int64 load unchanged.  The manifest is written
  *last*, so a crashed ingest never
  publishes a shard; hit/miss is decided by the shard loader after it has
  verified every sidecar (see :meth:`ArtifactStore.count_shard`).

Design rules, in order of importance:

1. **A bad artifact is a miss, never a crash.**  Loads tolerate
   truncated files, foreign JSON, version bumps and key-hash collisions
   by returning ``None``; the caller rebuilds and overwrites.
2. **Writes are atomic.**  Every artifact is written to a temporary
   sibling and ``os.replace``-d into place, so concurrent writers (the
   process-parallel executor) and killed processes can never publish a
   half-written file.
3. **Keys are content-addressed.**  The filename is a SHA-256 of the
   canonical key payload; the payload itself is stored *inside* the
   artifact and verified on load, so a hash collision degrades to a miss
   instead of serving the wrong placement.

Artifacts embed :data:`STORE_FORMAT_VERSION`; bumping it (because the
placement semantics or the record schema changed) invalidates every old
artifact at load time without any migration code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.io import PathLike, atomic_write_bytes, narrow_int_dtype
from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.results import RunRecord

__all__ = ["STORE_FORMAT_VERSION", "DiskStats", "StoreInfo", "ArtifactStore", "as_store"]

#: Bump when the on-disk layout, the placement semantics, or the record
#: schema changes; every artifact written under another version is a miss.
STORE_FORMAT_VERSION = 1

#: Sub-directory per artifact kind.
_KINDS = ("placements", "landmarks", "records", "shards")


def _canonical_key(key: Dict[str, object]) -> str:
    """The canonical JSON payload of a key (sorted, no whitespace drift)."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _write_artifact(path: str, data: bytes) -> None:
    try:
        atomic_write_bytes(path, data, make_parents=True)
    except OSError as exc:
        raise AnalysisError(f"cannot write artifact {path}: {exc}") from exc


@dataclass(frozen=True)
class DiskStats:
    """Hit/miss accounting of one artifact kind (a *miss* includes loads
    rejected for corruption, version mismatch, or key collision)."""

    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class StoreInfo:
    """A snapshot of the store's contents: artifact counts and bytes per kind."""

    root: str
    placements: int
    landmarks: int
    records: int
    total_bytes: int
    #: Shard manifests (one per ingested shard artifact; the sidecar
    #: ``.npy``/``.vtx.npz`` files count toward ``total_bytes`` only).
    shards: int = 0

    @property
    def total_artifacts(self) -> int:
        return self.placements + self.landmarks + self.records + self.shards

    def as_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "placements": self.placements,
            "landmarks": self.landmarks,
            "records": self.records,
            "shards": self.shards,
            "total_artifacts": self.total_artifacts,
            "total_bytes": self.total_bytes,
        }


class ArtifactStore:
    """Content-addressed persistence for placements, landmarks and records.

    The store is safe to share between threads and between processes: all
    mutation happens through atomic renames, counters are lock-protected,
    and loads never trust file contents (see the module docstring).
    """

    def __init__(self, root: PathLike) -> None:
        self.root = os.fspath(root)
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise AnalysisError(f"artifact store root {self.root!r} is not a directory")
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {kind: 0 for kind in _KINDS}
        self._misses: Dict[str, int] = {kind: 0 for kind in _KINDS}

    # ------------------------------------------------------------------
    # Paths and accounting
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: Dict[str, object], suffix: str) -> str:
        return os.path.join(self.root, kind, _digest(_canonical_key(key)) + suffix)

    def _count(self, kind: str, hit: bool) -> None:
        with self._lock:
            if hit:
                self._hits[kind] += 1
            else:
                self._misses[kind] += 1

    def stats(self, kind: str) -> DiskStats:
        """Hit/miss counters for one artifact kind (``"placements"``,
        ``"landmarks"``, ``"records"`` or ``"shards"``)."""
        if kind not in _KINDS:
            raise AnalysisError(f"unknown artifact kind {kind!r}; expected one of {_KINDS}")
        with self._lock:
            return DiskStats(hits=self._hits[kind], misses=self._misses[kind])

    # ------------------------------------------------------------------
    # Placements
    # ------------------------------------------------------------------
    @staticmethod
    def placement_key(
        dataset: str,
        partitioner: str,
        num_partitions: int,
        scale: float,
        seed: int,
    ) -> Dict[str, object]:
        """The canonical placement key payload (partitioner name as given;
        callers should canonicalise it first)."""
        return {
            "kind": "placement",
            "version": STORE_FORMAT_VERSION,
            "dataset": str(dataset),
            "partitioner": str(partitioner),
            "num_partitions": int(num_partitions),
            "scale": float(scale),
            "seed": int(seed),
        }

    def save_placement(
        self,
        key: Dict[str, object],
        partition_of: np.ndarray,
        strategy_name: str,
    ) -> None:
        """Persist one placement array atomically (last writer wins).

        The ids are written in the narrowest integer dtype that holds them
        (8 or 16 bits at any practical partition count, which compresses
        several times faster than int64); :meth:`load_placement` widens
        them back to int64.
        """
        partition_of = np.asarray(partition_of, dtype=np.int64)
        narrow = narrow_int_dtype(partition_of.min(initial=0), partition_of.max(initial=0))
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            partition_of=partition_of.astype(narrow),
            key=np.frombuffer(_canonical_key(key).encode("utf-8"), dtype=np.uint8),
            strategy_name=np.frombuffer(strategy_name.encode("utf-8"), dtype=np.uint8),
        )
        _write_artifact(self._path("placements", key, ".npz"), buffer.getvalue())

    def load_placement(
        self, key: Dict[str, object]
    ) -> Optional[Tuple[np.ndarray, str]]:
        """The stored ``(partition_of, strategy_name)`` for ``key``, or None.

        Any defect — missing file, truncated zip, wrong embedded key,
        version mismatch (versions live inside the key payload) — is a
        counted miss.
        """
        path = self._path("placements", key, ".npz")
        try:
            with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as payload:
                stored_key = bytes(payload["key"]).decode("utf-8")
                if stored_key != _canonical_key(key):
                    raise AnalysisError("artifact key mismatch")
                partition_of = np.asarray(payload["partition_of"], dtype=np.int64)
                strategy_name = bytes(payload["strategy_name"]).decode("utf-8")
        except Exception:
            self._count("placements", hit=False)
            return None
        self._count("placements", hit=True)
        return partition_of, strategy_name

    # ------------------------------------------------------------------
    # Landmarks
    # ------------------------------------------------------------------
    @staticmethod
    def landmark_key(
        dataset: str,
        count: int,
        landmark_seed: int,
        scale: float,
        seed: int,
    ) -> Dict[str, object]:
        """The canonical landmark-choice key payload."""
        return {
            "kind": "landmarks",
            "version": STORE_FORMAT_VERSION,
            "dataset": str(dataset),
            "count": int(count),
            "landmark_seed": int(landmark_seed),
            "scale": float(scale),
            "seed": int(seed),
        }

    def save_landmarks(self, key: Dict[str, object], landmarks: Sequence[int]) -> None:
        """Persist one landmark choice atomically."""
        payload = {"key": key, "landmarks": [int(v) for v in landmarks]}
        _write_artifact(
            self._path("landmarks", key, ".json"),
            json.dumps(payload).encode("utf-8"),
        )

    def load_landmarks(self, key: Dict[str, object]) -> Optional[List[int]]:
        """The stored landmark list for ``key``, or None (a counted miss)."""
        path = self._path("landmarks", key, ".json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload["key"] != key:
                raise AnalysisError("artifact key mismatch")
            landmarks = [int(v) for v in payload["landmarks"]]
        except Exception:
            self._count("landmarks", hit=False)
            return None
        self._count("landmarks", hit=True)
        return landmarks

    # ------------------------------------------------------------------
    # Run records
    # ------------------------------------------------------------------
    @staticmethod
    def record_key(
        dataset: str,
        partitioner: str,
        num_partitions: int,
        algorithm: str,
        backend: str,
        num_iterations: int,
        scale: float,
        seed: int,
        landmarks: Optional[Tuple[int, int]] = None,
        simulation: Optional[str] = None,
    ) -> Dict[str, object]:
        """The canonical completed-cell key payload.

        ``landmarks`` is the effective ``(count, seed)`` pair for SSSP
        cells (None otherwise); ``simulation`` fingerprints any
        non-default cluster / cost-model configuration so records
        simulated under different calibrations never answer for each
        other.
        """
        return {
            "kind": "record",
            "version": STORE_FORMAT_VERSION,
            "dataset": str(dataset),
            "partitioner": str(partitioner),
            "num_partitions": int(num_partitions),
            "algorithm": str(algorithm),
            "backend": str(backend),
            "num_iterations": int(num_iterations),
            "scale": float(scale),
            "seed": int(seed),
            "landmarks": None if landmarks is None else [int(v) for v in landmarks],
            "simulation": simulation,
        }

    def save_record(self, key: Dict[str, object], record: "RunRecord") -> None:
        """Persist one completed run record atomically."""
        from ..analysis.serialization import record_to_dict

        payload = {"key": key, "record": record_to_dict(record)}
        _write_artifact(
            self._path("records", key, ".json"),
            json.dumps(payload).encode("utf-8"),
        )

    def load_record(self, key: Dict[str, object]) -> Optional["RunRecord"]:
        """The stored run record for ``key``, or None (a counted miss)."""
        from ..analysis.serialization import record_from_dict

        path = self._path("records", key, ".json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload["key"] != key:
                raise AnalysisError("artifact key mismatch")
            record = record_from_dict(payload["record"])
        except Exception:
            self._count("records", hit=False)
            return None
        self._count("records", hit=True)
        return record

    # ------------------------------------------------------------------
    # Out-of-core partition shards
    # ------------------------------------------------------------------
    @staticmethod
    def shard_key(
        dataset: str,
        partitioner: str,
        num_partitions: int,
        scale: float,
        seed: int,
    ) -> Dict[str, object]:
        """The canonical shard key payload (same shape as placements;
        callers should canonicalise the partitioner name first)."""
        return {
            "kind": "shard",
            "version": STORE_FORMAT_VERSION,
            "dataset": str(dataset),
            "partitioner": str(partitioner),
            "num_partitions": int(num_partitions),
            "scale": float(scale),
            "seed": int(seed),
        }

    def shard_member_path(self, key: Dict[str, object], member: str) -> str:
        """On-disk path of one shard sidecar (e.g. ``"vtx.npz"``,
        ``"p00003.npy"``); the engine memory-maps the ``.npy`` ones."""
        return self._path("shards", key, "." + member)

    @contextlib.contextmanager
    def open_shard_member(self, key: Dict[str, object], member: str):
        """Stream one shard sidecar to disk atomically, without ever holding
        the payload in memory.  Sidecars must all be published *before*
        :meth:`save_shard_manifest`, so a crash mid-write leaves an
        unreferenced sidecar, never a dangling manifest.

        Yields a binary handle onto a temporary sibling; a clean exit
        ``os.replace``-s it into place, any exception removes it.  This is
        what lets the ingest writer emit multi-hundred-MiB partition files
        while staying inside an O(chunk) memory budget.
        """
        target = self.shard_member_path(key, member)
        try:
            directory = os.path.dirname(target) or "."
            os.makedirs(directory, exist_ok=True)
            temp_path = os.path.join(
                directory, f".tmp-{os.getpid()}-{os.urandom(6).hex()}.part"
            )
            fd = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            raise AnalysisError(f"cannot write artifact {target}: {exc}") from exc
        try:
            # Until os.fdopen hands fd to a file object, fd must be
            # closed on failure here or it leaks.
            handle = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        try:
            with handle:
                yield handle
            os.replace(temp_path, target)
        except BaseException as exc:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            if isinstance(exc, OSError):
                raise AnalysisError(
                    f"cannot write artifact {target}: {exc}"
                ) from exc
            raise

    def save_shard_manifest(self, key: Dict[str, object], manifest: Dict[str, object]) -> None:
        """Publish a shard by writing its manifest (the commit point)."""
        payload = {"key": key, "manifest": manifest}
        _write_artifact(
            self._path("shards", key, ".json"),
            json.dumps(payload).encode("utf-8"),
        )

    def load_shard_manifest(self, key: Dict[str, object]) -> Optional[Dict[str, object]]:
        """The stored shard manifest for ``key``, or None.

        Deliberately does **not** touch the hit/miss counters: a shard load
        is only a hit once every sidecar the manifest references has been
        verified, so :func:`repro.ooc.mmap_graph.load_sharded_graph` owns
        the verdict and reports it through :meth:`count_shard`.
        """
        path = self._path("shards", key, ".json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload["key"] != key:
                raise AnalysisError("artifact key mismatch")
            manifest = payload["manifest"]
            if not isinstance(manifest, dict):
                raise AnalysisError("malformed shard manifest")
        except Exception:
            return None
        return manifest

    def count_shard(self, hit: bool) -> None:
        """Record the verdict of one shard load attempt (see above)."""
        self._count("shards", hit)

    def discard_shard(self, key: Dict[str, object]) -> None:
        """Remove a shard's manifest and every sidecar sharing its digest.

        The manifest goes first: a crash mid-discard leaves orphaned
        sidecars (swept by :meth:`clear`), never a manifest referencing
        deleted data.
        """
        directory = os.path.join(self.root, "shards")
        digest = _digest(_canonical_key(key))
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        members = [n for n in names if n.startswith(digest)]
        members.sort(key=lambda n: (not n.endswith(".json"), n))
        for name in members:
            try:
                os.remove(os.path.join(directory, name))
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _artifact_files(self, kind: str) -> List[str]:
        directory = os.path.join(self.root, kind)
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return [
            os.path.join(directory, name)
            for name in sorted(names)
            if name.endswith((".npz", ".json"))
        ]

    def _sidecar_data_files(self, kind: str) -> List[str]:
        """Raw ``.npy`` edge files riding along shard manifests: part of the
        store's bytes and of ``clear``, but not artifacts in their own
        right (one shard = one manifest)."""
        directory = os.path.join(self.root, kind)
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return [
            os.path.join(directory, name)
            for name in sorted(names)
            if name.endswith(".npy")
        ]

    def info(self) -> StoreInfo:
        """Artifact counts and total bytes currently on disk."""
        counts: Dict[str, int] = {}
        total_bytes = 0
        for kind in _KINDS:
            files = self._artifact_files(kind)
            if kind == "shards":
                # One shard = one manifest; vertex tables (.npz) and edge
                # data (.npy) are sidecars counted in bytes only.
                counts[kind] = sum(1 for path in files if path.endswith(".json"))
                files = files + self._sidecar_data_files(kind)
            else:
                counts[kind] = len(files)
            for path in files:
                try:
                    total_bytes += os.path.getsize(path)
                except OSError:
                    pass
        return StoreInfo(
            root=self.root,
            placements=counts["placements"],
            landmarks=counts["landmarks"],
            records=counts["records"],
            shards=counts["shards"],
            total_bytes=total_bytes,
        )

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored artifacts (all kinds, or just ``kind``); returns
        how many artifacts were removed.  Orphaned ``.part`` temp files —
        left by writers killed between create and rename — are swept too
        (not counted: they were never published artifacts).  Counters are
        kept — they describe the store's history, not its contents."""
        if kind is not None and kind not in _KINDS:
            raise AnalysisError(f"unknown artifact kind {kind!r}; expected one of {_KINDS}")
        removed = 0
        for name in _KINDS if kind is None else (kind,):
            paths = self._artifact_files(name)
            if name == "shards":
                paths = paths + self._sidecar_data_files(name)
            for path in paths:
                try:
                    os.remove(path)
                    # Shard sidecars (.npz vertex tables, .npy edge data)
                    # are removed but not counted: one shard = one manifest.
                    if name != "shards" or path.endswith(".json"):
                        removed += 1
                except OSError:
                    pass
            directory = os.path.join(self.root, name)
            try:
                orphans = [f for f in os.listdir(directory) if f.endswith(".part")]
            except OSError:
                orphans = []
            for orphan in orphans:
                try:
                    os.remove(os.path.join(directory, orphan))
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(root={self.root!r})"


def as_store(store: Union["ArtifactStore", PathLike, None]) -> Optional[ArtifactStore]:
    """Coerce ``Session(store=...)`` input: a store, a directory path, or None."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return ArtifactStore(store)
    raise AnalysisError(
        f"store must be an ArtifactStore or a directory path, got {type(store).__name__}"
    )
