"""Parallel segment execution is bit-identical to serial execution.

The DESIGN.md §13 contract: ``max_workers`` changes wall-clock time,
never answers.  Segment plans are independent, ``map_ordered`` hands
results back in submission order, and the KnnHeap merge is
deterministic — so any worker count (including repeated runs with the
same count) must produce exactly the same neighbor lists, similarities
included, for every method, for scalar and batch entry points, and for
degraded (deadline) queries with an injected clock.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import STS3Database
from repro.core.executor import ExecutorPool, get_pool, resolve_workers

from ..conftest import ticking_clock

LENGTH = 40
WORKER_COUNTS = (1, 2, 8)


def fingerprints(results):
    """Exact (index, similarity) lists — bit-identity, not approximate."""
    return [[(n.index, n.similarity) for n in r.neighbors] for r in results]


def build_db(seed, n_series=120, segments=3, cache_bytes=0):
    """A multi-segment database: base segment + sealed spiked buffers."""
    rng = np.random.default_rng(seed)
    base = [rng.normal(size=LENGTH) for _ in range(n_series)]
    db = STS3Database(
        base, sigma=2, epsilon=0.5, normalize=False, buffer_capacity=8,
        cache_bytes=cache_bytes,
    )
    spike = 40.0
    for _ in range(segments - 1):
        for _ in range(8):
            series = rng.normal(size=LENGTH)
            series[int(rng.integers(0, LENGTH))] = spike
            spike += 5.0
            db.insert(series)
    return db, rng


@pytest.fixture(scope="module")
def shared():
    db, rng = build_db(seed=7)
    queries = [rng.normal(size=LENGTH) for _ in range(6)]
    return db, queries


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_zero_is_available_cpu_count(self, monkeypatch):
        # 0 means "one per CPU the process may run on" — the affinity
        # mask, not the machine (they differ under cgroup pinning).
        from repro.core.executor import MAX_WORKERS_ENV, available_cpu_count
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert resolve_workers(0) == available_cpu_count()

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_pool_registry_reuses_instances(self):
        assert get_pool(2) is get_pool(2)
        assert get_pool(2) is not get_pool(3)

    def test_map_ordered_preserves_submission_order(self):
        pool = ExecutorPool(4)
        out = pool.map_ordered(lambda x: x * x, range(20))
        assert out == [x * x for x in range(20)]


class TestParallelBitIdentity:
    @pytest.mark.parametrize("method", ["naive", "index", "pruning",
                                        "approximate", "minhash"])
    def test_scalar_query_identical_across_worker_counts(self, shared, method):
        db, queries = shared
        db.max_workers = None
        want = fingerprints([db.query(q, k=5, method=method) for q in queries])
        for workers in WORKER_COUNTS:
            db.max_workers = workers
            got = fingerprints([db.query(q, k=5, method=method) for q in queries])
            assert got == want, f"workers={workers} diverged for {method}"
        db.max_workers = None

    @pytest.mark.parametrize("method", ["naive", "index", "pruning",
                                        "approximate", "minhash"])
    def test_batch_query_identical_across_worker_counts(self, shared, method):
        db, queries = shared
        db.max_workers = None
        want = fingerprints(db.query_batch(queries, k=5, method=method))
        for workers in WORKER_COUNTS:
            db.max_workers = workers
            got = fingerprints(db.query_batch(queries, k=5, method=method))
            assert got == want, f"workers={workers} diverged for {method}"
        db.max_workers = None

    def test_repeated_parallel_runs_are_stable(self, shared):
        db, queries = shared
        db.max_workers = 8
        runs = [fingerprints(db.query_batch(queries, k=5, method="index"))
                for _ in range(3)]
        db.max_workers = None
        assert runs[0] == runs[1] == runs[2]

    @given(seed=st.integers(min_value=0, max_value=2**16),
           k=st.integers(min_value=1, max_value=12),
           workers=st.sampled_from(WORKER_COUNTS))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_queries_identical(self, seed, k, workers):
        db, rng = build_db(seed=11, n_series=60, segments=2)
        query_rng = np.random.default_rng(seed)
        queries = [query_rng.normal(size=LENGTH) for _ in range(3)]
        db.max_workers = None
        want = fingerprints(db.query_batch(queries, k=k, method="index"))
        db.max_workers = workers
        got = fingerprints(db.query_batch(queries, k=k, method="index"))
        db.max_workers = None
        assert got == want


class TestDeadlineLadderUnderParallelism:
    """The degradation ladder keeps working with workers > 1.

    The injected clock is consumed from multiple threads, so exact tick
    placement isn't reproducible across worker counts — what must hold
    is the ladder's *behavior*: degraded results carry their reason,
    still answer, and name skipped segments honestly.
    """

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_generous_deadline_stays_complete(self, workers):
        db, rng = build_db(seed=3)
        query = rng.normal(size=LENGTH)
        db.max_workers = workers
        db.planner.clock = ticking_clock(0.0001)
        result = db.query(query, k=5, method="index", deadline_ms=10_000)
        assert result.complete is True
        assert result.degraded_reason is None

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_blown_deadline_degrades_not_raises(self, workers):
        db, rng = build_db(seed=3)
        query = rng.normal(size=LENGTH)
        db.max_workers = workers
        db.planner.clock = ticking_clock(0.2)  # blows a 100 ms budget fast
        result = db.query(query, k=5, method="index", deadline_ms=100)
        assert result.complete is False
        assert result.degraded_reason == "deadline"
        assert len(result.neighbors) > 0  # degraded, never empty
        # skipped segments are named honestly, not fabricated
        assert all(s.startswith("segment-") for s in result.skipped_segments)

    def test_deadline_queries_identical_when_clock_is_serial(self):
        # With one worker the injected clock is consumed sequentially,
        # so the whole degraded result must be reproducible bit-for-bit.
        runs = []
        for _ in range(2):
            db, rng = build_db(seed=5)
            query = rng.normal(size=LENGTH)
            db.max_workers = 1
            db.planner.clock = ticking_clock(0.05)
            result = db.query(query, k=5, method="index", deadline_ms=100)
            runs.append((
                [(n.index, n.similarity) for n in result.neighbors],
                result.complete,
                result.degraded_reason,
                tuple(result.skipped_segments),
            ))
        assert runs[0] == runs[1]
