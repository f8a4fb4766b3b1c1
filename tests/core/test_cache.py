"""The caching tier: LRU semantics, metrics, and invalidation.

Covers the DESIGN.md §13 cache contracts at three layers:

- :class:`LRUBytesCache` in isolation — byte-budgeted LRU order,
  disabled-cache behavior, counters;
- the query-result cache on :class:`STS3Database` — hits are
  bit-identical detached copies, deadline queries bypass the cache,
  and every structural change (buffered insert, sealing insert, flush,
  compact, save/load round trip) stops stale answers from being
  served via the catalog-generation key component;
- the candidate cache inside the approximate searcher.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core import (
    CandidateCache,
    LRUBytesCache,
    QueryResultCache,
    fingerprint,
    load_database,
    save_database,
)
from repro.obs import MetricsRegistry, get_registry, set_registry

LENGTH = 32


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(previous)


def build_db(seed=9, n_series=40, cache_bytes=1 << 20):
    rng = np.random.default_rng(seed)
    base = [rng.normal(size=LENGTH) for _ in range(n_series)]
    db = STS3Database(
        base, sigma=2, epsilon=0.5, normalize=False, buffer_capacity=4,
        cache_bytes=cache_bytes,
    )
    return db, rng


def fingerprint_of(result):
    return [(n.index, n.similarity) for n in result.neighbors]


class TestLRUBytesCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = LRUBytesCache(100, name="t")
        assert cache.get("a") is None
        cache.put("a", 1, 10)
        assert cache.get("a") == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = LRUBytesCache(30, name="t")
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.get("a")  # refresh a — b becomes least recent
        cache.put("d", 4, 10)
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == 1
        assert cache.get("d") == 4
        assert cache.evictions == 1

    def test_replace_same_key_does_not_leak_bytes(self):
        cache = LRUBytesCache(100, name="t")
        cache.put("a", 1, 40)
        cache.put("a", 2, 40)
        assert cache.nbytes == 40
        assert cache.get("a") == 2

    def test_oversized_entry_is_refused(self):
        cache = LRUBytesCache(10, name="t")
        cache.put("big", 1, 11)
        assert len(cache) == 0
        assert cache.get("big") is None

    def test_zero_capacity_disables_but_still_counts_misses(self):
        cache = LRUBytesCache(0, name="t")
        cache.put("a", 1, 1)
        assert cache.get("a") is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["entries"] == 0

    def test_clear_drops_entries_keeps_counters(self):
        cache = LRUBytesCache(100, name="t")
        cache.put("a", 1, 10)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.stats()["hits"] == 1

    def test_metrics_labeled_by_cache_name(self, fresh_registry):
        result = QueryResultCache(100)
        candidate = CandidateCache(100)
        result.get("x")
        candidate.get("x")
        misses = fresh_registry.counter("sts3_cache_misses_total")
        assert misses.value(cache="result") == 1.0
        assert misses.value(cache="candidate") == 1.0

    def test_fingerprint_is_stable_and_separator_safe(self):
        assert fingerprint(b"ab", b"c") == fingerprint(b"ab", b"c")
        assert fingerprint(b"ab", b"c") != fingerprint(b"a", b"bc")


class TestResultCacheOnDatabase:
    def test_hit_is_bit_identical(self, fresh_registry):
        db, rng = build_db()
        query = rng.normal(size=LENGTH)
        first = db.query(query, k=5, method="index")
        second = db.query(query, k=5, method="index")
        assert fingerprint_of(first) == fingerprint_of(second)
        hits = fresh_registry.counter("sts3_cache_hits_total")
        assert hits.value(cache="result") >= 1.0

    def test_hit_is_a_detached_copy(self):
        db, rng = build_db()
        query = rng.normal(size=LENGTH)
        first = db.query(query, k=5, method="index")
        want = fingerprint_of(first)
        first.neighbors.clear()  # caller vandalism must not poison the cache
        again = db.query(query, k=5, method="index")
        assert fingerprint_of(again) == want

    def test_different_parameters_do_not_collide(self):
        db, rng = build_db()
        query = rng.normal(size=LENGTH)
        r5 = db.query(query, k=5, method="index")
        r3 = db.query(query, k=3, method="index")
        assert len(r5.neighbors) == 5
        assert len(r3.neighbors) == 3

    def test_deadline_queries_bypass_the_cache(self, fresh_registry):
        db, rng = build_db()
        query = rng.normal(size=LENGTH)
        db.query(query, k=5, method="index", deadline_ms=10_000)
        assert len(db.result_cache) == 0  # never stored
        db.query(query, k=5, method="index")  # populates
        before = db.result_cache.hits
        db.query(query, k=5, method="index", deadline_ms=10_000)
        assert db.result_cache.hits == before  # never served either

    def test_cache_disabled_by_default(self):
        rng = np.random.default_rng(0)
        db = STS3Database([rng.normal(size=LENGTH) for _ in range(8)],
                          sigma=2, epsilon=0.5)
        assert db.result_cache is None
        query = rng.normal(size=LENGTH)
        assert fingerprint_of(db.query(query, k=3)) == \
            fingerprint_of(db.query(query, k=3))

    def test_batch_path_uses_and_fills_the_cache(self, fresh_registry):
        db, rng = build_db()
        queries = [rng.normal(size=LENGTH) for _ in range(4)]
        cold = db.query_batch(queries, k=5, method="index")
        warm = db.query_batch(queries, k=5, method="index")
        assert [fingerprint_of(r) for r in cold] == \
            [fingerprint_of(r) for r in warm]
        hits = fresh_registry.counter("sts3_cache_hits_total")
        assert hits.value(cache="result") >= 4.0

    def test_scalar_and_batch_share_cache_keys(self):
        db, rng = build_db()
        query = rng.normal(size=LENGTH)
        db.query(query, k=5, method="index")
        before = db.result_cache.hits
        db.query_batch([query], k=5, method="index")
        assert db.result_cache.hits == before + 1


class TestGenerationInvalidation:
    """Every structural change makes cached answers unaddressable."""

    def check_never_stale(self, db, rng, mutate):
        """Query, mutate, and require the answer to match a cache-free run."""
        query = rng.normal(size=LENGTH)
        db.query(query, k=5, method="index")  # populate the cache
        generation = db.catalog.generation
        mutate(db)
        assert db.catalog.generation > generation
        after = db.query(query, k=5, method="index")
        cache = db.result_cache
        db.result_cache = None
        truth = db.query(query, k=5, method="index")
        db.result_cache = cache
        assert fingerprint_of(after) == fingerprint_of(truth)

    def test_buffered_insert_bumps_generation(self):
        db, rng = build_db()
        spiked = rng.normal(size=LENGTH)
        spiked[0] = 99.0  # out of bound => buffered, no seal
        self.check_never_stale(db, rng, lambda d: d.insert(spiked))
        assert len(db.buffer) > 0  # really took the buffered path

    def test_sealing_inserts_bump_generation(self):
        db, rng = build_db()

        def seal(d):
            for _ in range(d.buffer.capacity):
                series = rng.normal(size=LENGTH)
                series[0] = 120.0
                d.insert(series)

        segments = len(db.catalog.segments)
        self.check_never_stale(db, rng, seal)
        assert len(db.catalog.segments) > segments

    def test_flush_bumps_generation(self):
        db, rng = build_db()
        spiked = rng.normal(size=LENGTH)
        spiked[0] = 99.0
        db.insert(spiked)

        self.check_never_stale(db, rng, lambda d: d.flush())

    def test_compact_bumps_generation(self):
        db, rng = build_db()
        for _ in range(db.buffer.capacity):  # seal one extra segment
            series = rng.normal(size=LENGTH)
            series[0] = 120.0
            db.insert(series)
        self.check_never_stale(db, rng, lambda d: d.compact())

    def test_loaded_database_starts_cold(self, tmp_path):
        db, rng = build_db()
        query = rng.normal(size=LENGTH)
        want = fingerprint_of(db.query(query, k=5, method="index"))
        archive = tmp_path / "db.sts3"
        save_database(db, archive)
        loaded = load_database(archive, cache_bytes=1 << 20)
        assert len(loaded.result_cache) == 0
        assert fingerprint_of(loaded.query(query, k=5, method="index")) == want


class TestCandidateCache:
    def test_repeat_approximate_queries_hit(self, fresh_registry):
        db, rng = build_db(cache_bytes=0)
        query = rng.normal(size=LENGTH)
        first = db.query(query, k=5, method="approximate")
        second = db.query(query, k=5, method="approximate")
        assert fingerprint_of(first) == fingerprint_of(second)
        hits = fresh_registry.counter("sts3_cache_hits_total")
        assert hits.value(cache="candidate") >= 1.0
