"""Hit/miss accounting for the engine's result store.

The engine's results live in the array-backed
:class:`~repro.engine.store.ShardedResultStore`; this module keeps the
:class:`CacheStats` counters it reports.
"""

from __future__ import annotations

from dataclasses import dataclass


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
