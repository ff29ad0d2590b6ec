"""LRU cache for hot query results, keyed like store artifacts.

Keys follow the :class:`~repro.session.store.ArtifactStore` addressing
idiom: the logical identity of a query is a flat JSON-serialisable
mapping, canonicalised (sorted keys, no whitespace drift) and hashed
with SHA-256.  Two queries share a cache slot exactly when their
canonical payloads are byte-identical, and the digest keeps arbitrary
payload sizes out of the dict keys.

The cache is shared between the asyncio request handlers and the engine
worker thread that publishes batched SSSP results, so every operation is
lock-protected.  Hit/miss/eviction counters feed the ``/stats``
endpoint.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..errors import AnalysisError, require_count

__all__ = ["QueryCache"]

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


class QueryCache:
    """A bounded least-recently-used mapping with hit/miss accounting."""

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = require_count(max_entries, "max_entries", 1, AnalysisError)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def key(**fields: object) -> str:
        """The content-addressed cache key of a query identity.

        Same idiom as the artifact store: canonical JSON payload,
        SHA-256 digest as the address.
        """
        payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key``; a hit refreshes its recency."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return False, None
            self._entries.move_to_end(key)
            self._hits += 1
            return True, value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the least recent overflow."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def peek(self, key: str) -> Optional[Any]:
        """The cached value without touching recency or counters."""
        with self._lock:
            return self._entries.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }
