"""Shared-memory segment registry for the parallel Pregel executor.

A :class:`ShmRegistry` owns a set of named ``multiprocessing.shared_memory``
segments holding numpy arrays.  The parent process *publishes* arrays once
(graph triplets, membership CSR offsets, per-run state/outbox buffers) and
worker processes *attach* zero-copy ``np.ndarray`` views over the same
pages, so no graph data is ever pickled per superstep.

Lifecycle hygiene is the whole point of this module:

* every registry is a context manager whose :meth:`close` unlinks all of
  its segments, and close is idempotent;
* all registries created by a process are tracked so an ``atexit`` hook
  and a chained ``SIGTERM`` handler unlink anything still live when the
  process dies (guarded by owner pid — a forked worker inheriting the
  table must never unlink its parent's segments); the ``SIGTERM`` handler
  also stops the process's pool workers, which would otherwise outlive
  it — and keep its resource tracker alive — forever;
* segment names carry the :data:`SEGMENT_PREFIX` and the owner pid, so
  tests can scan ``/dev/shm`` for leaks and attribute them;
* the attach side works around the CPython < 3.13 resource-tracker bug
  (attaching registers the segment *again*, so a worker exiting would
  prematurely destroy it) by unregistering after attach.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import uuid
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import EngineError

__all__ = [
    "SEGMENT_PREFIX",
    "ShmRegistry",
    "attach_array",
    "cleanup_all",
    "live_segment_stats",
    "set_attach_unregister",
    "shared_memory_available",
]

#: Prefix of every segment name this package creates; leak tests scan
#: ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-shm"

#: Whether :func:`attach_array` drops the attach-side resource-tracker
#: registration.  Needed for *spawn* workers (their own tracker would tear
#: the owner's segment down when the worker exits); harmful for *fork*
#: workers (they share the owner's tracker, whose registration set dedupes
#: — unregistering there orphans the owner's entry and the eventual unlink
#: spews KeyError tracebacks from the tracker daemon).  The pool owner
#: configures this in each worker via :func:`set_attach_unregister`.
_UNREGISTER_ON_ATTACH = True

#: All registries created by this process (owner side only), keyed by id.
_LIVE: Dict[int, "ShmRegistry"] = {}
_LIVE_LOCK = threading.Lock()
_HOOKS_INSTALLED = False
_PREVIOUS_SIGTERM = None


def _segment_name(key: str) -> str:
    # /dev/shm names are limited (NAME_MAX 255, and macOS caps POSIX shm
    # names far lower); keep them short, unique and attributable.
    token = uuid.uuid4().hex[:8]
    safe = "".join(ch if ch.isalnum() else "-" for ch in key)[:24]
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{token}-{safe}"


def _unregister_tracker(name: str) -> None:
    """Drop one resource-tracker registration of segment ``name``.

    Safe to call when the registration does not exist (the tracker treats
    unregister of an unknown resource as a no-op).
    """
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


def cleanup_all() -> int:
    """Unlink every live segment owned by *this* process.

    Called from ``atexit`` and ``SIGTERM``; forked children share the
    module table but must not destroy their parent's segments, hence the
    owner-pid guard inside :meth:`ShmRegistry.close`.  Returns the number
    of registries closed.
    """
    with _LIVE_LOCK:
        registries = list(_LIVE.values())
    closed = 0
    for registry in registries:
        if registry.owner_pid == os.getpid():
            registry.close()
            closed += 1
    return closed


def _handle_sigterm(signum, frame):  # pragma: no cover - exercised in a subprocess
    cleanup_all()
    # Forked pool workers block on their call queue and never notice the
    # parent is gone; they also hold the resource tracker's pipe open.
    # Stop and reap them here, since SIG_DFL below skips every atexit hook.
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout=1.0)
    previous = _PREVIOUS_SIGTERM
    if callable(previous):
        previous(signum, frame)
    else:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def _install_hooks() -> None:
    global _HOOKS_INSTALLED, _PREVIOUS_SIGTERM
    if _HOOKS_INSTALLED:
        return
    _HOOKS_INSTALLED = True
    atexit.register(cleanup_all)
    # Signal handlers can only be installed from the main thread; a
    # registry created on a worker thread still gets the atexit hook.
    if threading.current_thread() is threading.main_thread():
        try:
            _PREVIOUS_SIGTERM = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, _handle_sigterm)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            _PREVIOUS_SIGTERM = None


def shared_memory_available() -> bool:
    """Whether POSIX shared memory actually works on this platform."""
    try:
        probe = shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    try:
        probe.buf[0] = 1
    except Exception:  # pragma: no cover - readonly mounts
        probe.close()
        return False
    probe.close()
    try:
        probe.unlink()
    except Exception:  # pragma: no cover
        pass
    return True


def set_attach_unregister(enabled: bool) -> None:
    """Configure whether attaches drop their resource-tracker registration.

    Called from the worker-pool initializer: ``False`` for fork pools
    (shared tracker), ``True`` for spawn pools (per-process trackers).
    """
    global _UNREGISTER_ON_ATTACH
    _UNREGISTER_ON_ATTACH = bool(enabled)


def attach_array(entry: Dict[str, object]) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach a manifest entry in a worker: ``(handle, zero-copy view)``.

    The caller must keep the returned handle alive for as long as the view
    is used.  The attach-side resource-tracker registration is dropped so
    a worker exiting does not tear the segment down under the owner.
    """
    shm = shared_memory.SharedMemory(name=str(entry["name"]))
    if _UNREGISTER_ON_ATTACH:
        _unregister_tracker(shm.name)
    shape = tuple(entry["shape"])
    view = np.ndarray(shape, dtype=np.dtype(str(entry["dtype"])), buffer=shm.buf)
    return shm, view


class ShmRegistry:
    """A named set of shared-memory-backed numpy arrays owned by one process."""

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self.owner_pid = os.getpid()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._entries: Dict[str, Dict[str, object]] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._closed = False
        _install_hooks()
        with _LIVE_LOCK:
            _LIVE[id(self)] = self

    # ------------------------------------------------------------------
    def create_array(self, key: str, shape, dtype) -> np.ndarray:
        """Allocate an uninitialised shared array and return the owner view."""
        if self._closed:
            raise EngineError(f"registry {self.label!r} is closed")
        if key in self._segments:
            raise EngineError(f"segment {key!r} already exists in registry {self.label!r}")
        shape = tuple(int(n) for n in np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
        dtype = np.dtype(dtype)
        size = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        shm = shared_memory.SharedMemory(create=True, name=_segment_name(key), size=size)
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        self._segments[key] = shm
        self._entries[key] = {"name": shm.name, "shape": tuple(shape), "dtype": dtype.str}
        self._arrays[key] = view
        return view

    def publish_array(self, key: str, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a new shared segment; returns the owner view."""
        array = np.ascontiguousarray(array)
        view = self.create_array(key, array.shape, array.dtype)
        view[...] = array
        return view

    def publish_bytes(self, key: str, payload: bytes) -> None:
        """Publish an opaque byte string (e.g. a pickled kernel)."""
        view = self.create_array(key, (len(payload),), np.uint8)
        if payload:
            view[:] = np.frombuffer(payload, dtype=np.uint8)
        self._entries[key]["kind"] = "bytes"

    # ------------------------------------------------------------------
    def array(self, key: str) -> np.ndarray:
        """The owner-side view of segment ``key``."""
        return self._arrays[key]

    def entry(self, key: str) -> Dict[str, object]:
        """The manifest entry (name/shape/dtype) of segment ``key``."""
        return self._entries[key]

    def manifest(self) -> Dict[str, Dict[str, object]]:
        """All manifest entries, for shipping to workers with each task."""
        return dict(self._entries)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(shm.size for shm in self._segments.values())

    def __iter__(self) -> Iterator[str]:
        return iter(self._segments)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink and release every segment.  Idempotent; owner-pid guarded."""
        if self._closed:
            return
        self._closed = True
        is_owner = self.owner_pid == os.getpid()
        for shm in self._segments.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - double close
                pass
            if is_owner:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
                except Exception:  # pragma: no cover
                    pass
        self._segments.clear()
        self._arrays.clear()
        with _LIVE_LOCK:
            _LIVE.pop(id(self), None)

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> Optional[bool]:
        self.close()
        return None

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def live_segment_stats() -> Tuple[int, int]:
    """``(segment_count, total_bytes)`` across this process's live registries."""
    with _LIVE_LOCK:
        registries = [r for r in _LIVE.values() if r.owner_pid == os.getpid()]
    return (
        sum(r.num_segments for r in registries),
        sum(r.total_bytes for r in registries),
    )
