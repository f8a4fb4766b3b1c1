"""Byte-budgeted LRU caches for the query path (DESIGN.md §13).

Two caches share one implementation:

- :class:`QueryResultCache` — full ``query()`` answers keyed on
  ``(set-fingerprint, k, method, scale, max_scale, epsilon, catalog
  generation)``.  The generation component is the invalidation wire:
  every structural change (insert, flush, compact, recover) bumps the
  catalog generation, so stale entries simply stop being addressable
  and age out of the LRU.  Only *complete* results are cached —
  degraded/deadline answers depend on wall-clock and must never be
  replayed.
- :class:`CandidateCache` — coarse-level survivor sets inside
  :class:`~repro.core.approximate.ApproximateSearcher`.  Keyed on the
  exact coarse representations of the query plus ``k``; since a
  searcher is built over an immutable segment, entries can never go
  stale and the cache needs no generation component.

Both report ``sts3_cache_{hits,misses,evictions}_total{cache=...}``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from ..obs import get_registry

__all__ = ["LRUBytesCache", "QueryResultCache", "CandidateCache", "fingerprint"]


def fingerprint(*parts: bytes) -> bytes:
    """A short stable digest of binary parts (query-set fingerprints)."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part)
        digest.update(b"\x00")
    return digest.digest()


class LRUBytesCache:
    """An LRU mapping bounded by an approximate byte budget.

    ``capacity_bytes <= 0`` disables the cache entirely: ``get`` always
    misses and ``put`` is a no-op (metrics still count the misses, so a
    disabled cache is visible rather than silent).  Entry sizes are
    caller-supplied estimates; the budget is advisory, not an
    allocator.
    """

    def __init__(self, capacity_bytes: int, name: str = "generic"):
        self.capacity_bytes = int(capacity_bytes)
        self.name = name
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- core ------------------------------------------------------------

    def get(self, key):
        """The cached value, or ``None`` on a miss (counted either way)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                get_registry().counter("sts3_cache_misses_total").inc(cache=self.name)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            get_registry().counter("sts3_cache_hits_total").inc(cache=self.name)
            return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        """Insert/replace ``key``; evict LRU entries past the budget."""
        if self.capacity_bytes <= 0:
            return
        nbytes = max(int(nbytes), 1)
        if nbytes > self.capacity_bytes:
            return  # would evict everything and still not fit
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while self._bytes > self.capacity_bytes and self._entries:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1
                get_registry().counter("sts3_cache_evictions_total").inc(
                    cache=self.name
                )

    def clear(self) -> None:
        """Drop every entry (budget and counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate bytes currently held."""
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus occupancy, for CLI surfaces."""
        with self._lock:
            return {
                "name": self.name,
                "capacity_bytes": self.capacity_bytes,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class QueryResultCache(LRUBytesCache):
    """LRU over complete ``query()`` answers (see module docstring)."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes, name="result")

    @staticmethod
    def key(
        prepared_bytes: bytes,
        k: int,
        method: str,
        scale: int,
        max_scale: int,
        epsilon,
        generation: int,
    ) -> tuple:
        """The full cache key; ``generation`` carries invalidation."""
        return (
            fingerprint(prepared_bytes),
            int(k),
            method,
            int(scale),
            int(max_scale),
            epsilon,  # float or per-axis tuple — hashable either way
            int(generation),
        )


class CandidateCache(LRUBytesCache):
    """LRU over coarse-filter survivor sets (approximate path)."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes, name="candidate")
