"""Tick-window batching scheduler for exact SSSP point queries.

Concurrent requests arriving within one tick window are coalesced into a
single engine invocation: the first submission arms a flush timer, later
submissions pile onto the pending set (duplicate keys attach to the same
slot), and when the window elapses — or the pending set reaches
``max_batch`` — the whole set ships to ``run_batch`` as one call.  For
the serving layer, ``run_batch`` is one multi-source frontier sweep per
dataset (see :meth:`GraphService.run_batch
<repro.serve.service.GraphService.run_batch>`), so N concurrent
single-source queries cost one Pregel run instead of N.

The engine call is CPU-bound, so it runs on a dedicated single-thread
executor: the event loop keeps accepting requests (which accumulate into
the *next* batch) while a batch computes, and batches can never overlap
on the engine.
"""

from __future__ import annotations

import asyncio
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, List, Optional

from ..errors import EngineError, require_count

__all__ = ["BatchStats", "BatchingScheduler"]


class BatchStats:
    """Lock-protected coalescing counters for the ``/stats`` endpoint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queries = 0
        self.batches = 0
        self.batched_keys = 0
        self.largest_batch = 0

    def count_query(self) -> None:
        with self._lock:
            self.queries += 1

    def count_batch(self, num_keys: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_keys += num_keys
            if num_keys > self.largest_batch:
                self.largest_batch = num_keys

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "queries": self.queries,
                "batches": self.batches,
                "batched_keys": self.batched_keys,
                # Queries answered by riding along an already-pending key
                # or sharing a flush with other keys.
                "coalesced_queries": self.queries - self.batches,
                "largest_batch": self.largest_batch,
            }


class BatchingScheduler:
    """Coalesce concurrent ``submit`` calls into windowed ``run_batch`` calls.

    ``run_batch(keys)`` must return a mapping with an entry per requested
    key; it runs on a private executor thread.  All other state is only
    touched from the event loop, so no extra locking is needed there.
    """

    def __init__(
        self,
        run_batch: Callable[[List[Hashable]], Dict[Hashable, Any]],
        window_seconds: float = 0.025,
        max_batch: int = 256,
    ) -> None:
        if not (math.isfinite(window_seconds) and window_seconds >= 0):
            raise EngineError(
                f"window_seconds must be a non-negative finite number, got {window_seconds!r}"
            )
        self._run_batch = run_batch
        self.window_seconds = float(window_seconds)
        self.max_batch = require_count(max_batch, "max_batch", 1, EngineError)
        self.stats = BatchStats()
        self._pending: Dict[Hashable, List[asyncio.Future]] = {}
        self._timer: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._closed = False

    async def submit(self, key: Hashable) -> Any:
        """Enqueue ``key`` and wait for its slice of the next batch result."""
        if self._closed:
            raise EngineError("batching scheduler is closed")
        self.stats.count_query()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.setdefault(key, []).append(future)
        if len(self._pending) >= self.max_batch:
            self._cancel_timer()
            asyncio.ensure_future(self._flush())
        elif self._timer is None:
            self._timer = loop.create_task(self._tick())
        return await future

    async def _tick(self) -> None:
        try:
            await asyncio.sleep(self.window_seconds)
        except asyncio.CancelledError:  # pragma: no cover - flushed early
            return
        self._timer = None
        await self._flush()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    async def _flush(self) -> None:
        pending, self._pending = self._pending, {}
        if not pending:
            return
        keys = list(pending)
        self.stats.count_batch(len(keys))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(self._executor, self._run_batch, keys)
        except Exception as exc:
            for futures in pending.values():
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
            return
        for key, futures in pending.items():
            for future in futures:
                if future.done():
                    continue
                if key in results:
                    future.set_result(results[key])
                else:
                    future.set_exception(
                        EngineError(f"batch runner returned no result for {key!r}")
                    )

    async def close(self) -> None:
        """Refuse new work, fail whatever is still pending, stop the worker."""
        self._closed = True
        self._cancel_timer()
        pending, self._pending = self._pending, {}
        for futures in pending.values():
            for future in futures:
                if not future.done():
                    future.set_exception(EngineError("batching scheduler is closing"))
        self._executor.shutdown(wait=False)
