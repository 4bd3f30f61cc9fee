"""Bounded LRU cache with hit/miss accounting.

The engine's results live in the array-backed
:class:`~repro.engine.store.ShardedResultStore`; this module keeps the
:class:`CacheStats` counters it reports and a small general-purpose
:class:`LruCache`.  The cache is a plain ``OrderedDict`` guarded by a
lock, so it can be shared by code running on threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import ParameterError

#: Sentinel distinguishing "missing" from a cached ``None``.
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LruCache:
    """A size-bounded least-recently-used mapping.

    Args:
        maxsize: Maximum number of entries.  ``0`` disables storage
            entirely (every lookup is a miss) while keeping the API.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 0:
            raise ParameterError(f"cache maxsize must be >= 0, got {maxsize}")
        self._maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @property
    def maxsize(self) -> int:
        """Entry bound this cache was built with."""
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most-recent) or ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least-recently-used overflow."""
        if self._maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._data),
                maxsize=self._maxsize,
            )
