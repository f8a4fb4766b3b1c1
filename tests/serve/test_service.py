"""QueryService behavior: coalescing parity, admission control, drain.

The load-bearing contract (ISSUE acceptance): answers served through
the coalescing path are *bit-identical* to direct ``db.query`` calls —
including deadline-degraded and cache-hit answers.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import STS3Database
from repro.obs import get_registry
from repro.serve import QueryService, ServeError, ServiceConfig

from ..conftest import ticking_clock


def run(coro):
    return asyncio.run(coro)


def assert_same_result(served, direct):
    """Bit-identical: neighbours (order, index, similarity bits) + stats."""
    assert len(served.neighbors) == len(direct.neighbors)
    for s, d in zip(served.neighbors, direct.neighbors):
        assert s.index == d.index
        assert s.similarity.hex() == d.similarity.hex()
    assert served.stats == direct.stats
    assert served.complete == direct.complete
    assert served.skipped_segments == direct.skipped_segments
    assert served.degraded_reason == direct.degraded_reason


def window_snapshot():
    return get_registry().histogram("sts3_server_window_queries").series_snapshot()


class TestCoalescing:
    def test_concurrent_queries_share_one_window(self, db, queries):
        direct = [db.query(q, k=5, method="index") for q in queries]
        service = QueryService(db, ServiceConfig(coalesce_window_ms=100.0))

        async def scenario():
            try:
                return await asyncio.gather(
                    *(service.query(q, k=5, method="index") for q in queries)
                )
            finally:
                await service.drain()
                service.close()

        served = run(scenario())
        for s, d in zip(served, direct):
            assert_same_result(s, d)
        # All twelve queries coalesced into a single engine batch.
        windows = window_snapshot()
        assert windows["count"] == 1
        assert windows["sum"] == len(queries)

    def test_mixed_signatures_split_into_windows(self, db, queries):
        direct_k3 = [db.query(q, k=3, method="index") for q in queries[:4]]
        direct_k7 = [db.query(q, k=7, method="index") for q in queries[4:8]]
        service = QueryService(db, ServiceConfig(coalesce_window_ms=100.0))

        async def scenario():
            try:
                k3 = [service.query(q, k=3, method="index") for q in queries[:4]]
                k7 = [service.query(q, k=7, method="index") for q in queries[4:8]]
                return await asyncio.gather(*k3, *k7)
            finally:
                await service.drain()
                service.close()

        served = run(scenario())
        for s, d in zip(served, direct_k3 + direct_k7):
            assert_same_result(s, d)
        # k is answer-affecting, so the two groups must not mix.
        assert window_snapshot()["count"] == 2

    def test_lone_query_uses_scalar_path(self, db, queries):
        direct = db.query(queries[0], k=5, method="index")
        service = QueryService(db, ServiceConfig(coalesce_window_ms=5.0))

        async def scenario():
            try:
                return await service.query(queries[0], k=5, method="index")
            finally:
                await service.drain()
                service.close()

        assert_same_result(run(scenario()), direct)
        windows = window_snapshot()
        assert windows["count"] == 1 and windows["sum"] == 1

    def test_max_coalesce_flushes_early(self, db, queries):
        service = QueryService(
            db, ServiceConfig(coalesce_window_ms=10_000.0, max_coalesce=4)
        )

        async def scenario():
            try:
                # A window that would wait 10s flushes at 4 occupants,
                # so this completes promptly.
                return await asyncio.wait_for(
                    asyncio.gather(
                        *(service.query(q, k=5, method="index")
                          for q in queries[:4])
                    ),
                    timeout=5.0,
                )
            finally:
                await service.drain(grace_s=5.0)
                service.close()

        served = run(scenario())
        assert len(served) == 4
        assert window_snapshot()["sum"] == 4

    def test_window_disabled_still_parity(self, db, queries):
        direct = [db.query(q, k=5, method="index") for q in queries[:3]]
        service = QueryService(db, ServiceConfig(coalesce_window_ms=0.0))

        async def scenario():
            try:
                return await asyncio.gather(
                    *(service.query(q, k=5, method="index")
                      for q in queries[:3])
                )
            finally:
                await service.drain()
                service.close()

        for s, d in zip(run(scenario()), direct):
            assert_same_result(s, d)
        assert window_snapshot()["count"] == 0  # no windows opened


class TestDeadlines:
    def test_degraded_answer_is_bit_identical(self):
        # 60 ms per clock tick against a 100 ms budget degrades the
        # plan deterministically; served and direct runs see identical
        # clock sequences, so they must degrade identically.
        from .conftest import make_multiseg_db

        db, query = make_multiseg_db()
        db.planner.clock = ticking_clock(0.06)
        direct = db.query(query, k=5, method="index", deadline_ms=100)
        assert direct.complete is False  # the scenario really degrades

        db.planner.clock = ticking_clock(0.06)
        service = QueryService(db, ServiceConfig(coalesce_window_ms=100.0))

        async def scenario():
            try:
                return await service.query(
                    query, k=5, method="index", deadline_ms=100
                )
            finally:
                await service.drain()
                service.close()

        served = run(scenario())
        assert_same_result(served, direct)
        # Deadline queries bypass the micro-batching window.
        assert window_snapshot()["count"] == 0

    def test_queue_wait_counts_against_budget(self):
        # The serving layer anchors the budget at arrival
        # (deadline_start); a stamp far in the clock's past must burn
        # the whole budget even though the engine itself is instant.
        from .conftest import make_multiseg_db

        db, query = make_multiseg_db()
        db.planner.clock = ticking_clock(0.0001)
        fresh = db.query(
            query, k=5, method="index", deadline_ms=150, deadline_start=None
        )
        assert fresh.complete is True  # fast engine, fresh anchor: fine
        db.planner.clock = ticking_clock(0.0001)
        stale = db.query(
            query, k=5, method="index", deadline_ms=150, deadline_start=-10.0
        )
        # Anchored 10 s in the past: over budget before planning, so
        # everything after the always-run first segment is skipped.
        assert stale.complete is False
        assert stale.degraded_reason == "deadline"
        assert len(stale.skipped_segments) == 2


class TestCacheHits:
    def test_cached_answer_is_bit_identical(self, workload, queries):
        db = STS3Database(
            workload.database, sigma=3, epsilon=0.5, cache_bytes=4 << 20
        )
        direct = db.query(queries[0], k=5, method="index")  # warms the cache
        assert db.result_cache is not None
        service = QueryService(db, ServiceConfig(coalesce_window_ms=5.0))

        async def scenario():
            try:
                first = await service.query(queries[0], k=5, method="index")
                second = await service.query(queries[0], k=5, method="index")
                return first, second
            finally:
                await service.drain()
                service.close()

        first, second = run(scenario())
        assert_same_result(first, direct)
        assert_same_result(second, direct)

    def test_coalesced_batch_also_hits_cache(self, workload, queries):
        db = STS3Database(
            workload.database, sigma=3, epsilon=0.5, cache_bytes=4 << 20
        )
        direct = [db.query(q, k=5, method="index") for q in queries[:4]]
        service = QueryService(db, ServiceConfig(coalesce_window_ms=100.0))

        async def scenario():
            try:
                return await asyncio.gather(
                    *(service.query(q, k=5, method="index")
                      for q in queries[:4])
                )
            finally:
                await service.drain()
                service.close()

        for s, d in zip(run(scenario()), direct):
            assert_same_result(s, d)


class TestAdmission:
    def test_busy_when_queue_full(self, db, queries):
        service = QueryService(
            db, ServiceConfig(coalesce_window_ms=10_000.0, max_pending=1)
        )

        async def scenario():
            first = asyncio.ensure_future(
                service.query(queries[0], k=5, method="index")
            )
            await asyncio.sleep(0)  # let it park in the open window
            with pytest.raises(ServeError) as excinfo:
                await service.query(queries[1], k=5, method="index")
            assert excinfo.value.code == "BUSY"
            await service.drain(grace_s=5.0)  # flushes the open window
            await first
            service.close()

        run(scenario())
        rejected = get_registry().counter("sts3_server_rejected_total")
        assert rejected.value(reason="queue_full") == 1

    def test_rate_limit_per_client(self, db, queries):
        service = QueryService(
            db,
            ServiceConfig(
                coalesce_window_ms=0.0, rate_limit=1.0, rate_burst=2
            ),
        )
        service.clock = lambda: 0.0  # frozen: buckets never refill

        async def scenario():
            try:
                await service.query(queries[0], k=5, client="alice")
                await service.query(queries[1], k=5, client="alice")
                with pytest.raises(ServeError) as excinfo:
                    await service.query(queries[2], k=5, client="alice")
                assert excinfo.value.code == "RATE_LIMITED"
                # An unrelated client has its own bucket.
                await service.query(queries[3], k=5, client="bob")
            finally:
                service._draining = True
                service.close()

        run(scenario())
        rejected = get_registry().counter("sts3_server_rejected_total")
        assert rejected.value(reason="rate_limited") == 1

    def test_bucket_refills_with_time(self, db, queries):
        service = QueryService(
            db,
            ServiceConfig(
                coalesce_window_ms=0.0, rate_limit=10.0, rate_burst=1
            ),
        )
        clock = ticking_clock(0.5)  # 0.5 s between admissions
        service.clock = clock

        async def scenario():
            try:
                # burst of 1, but 0.5 s at 10 tokens/s refills plenty.
                for q in queries[:3]:
                    await service.query(q, k=5, client="alice")
            finally:
                service._draining = True
                service.close()

        run(scenario())  # no ServeError: refill kept pace

    def test_batch_costs_its_size_in_tokens(self, db, queries):
        service = QueryService(
            db,
            ServiceConfig(
                coalesce_window_ms=0.0, rate_limit=1.0, rate_burst=4
            ),
        )
        service.clock = lambda: 0.0

        async def scenario():
            try:
                await service.query_batch(queries[:3], k=5, client="alice")
                with pytest.raises(ServeError) as excinfo:
                    await service.query_batch(queries[:3], k=5, client="alice")
                assert excinfo.value.code == "RATE_LIMITED"
            finally:
                service._draining = True
                service.close()

        run(scenario())


class TestDrain:
    def test_drain_flushes_open_windows(self, db, queries):
        service = QueryService(
            db, ServiceConfig(coalesce_window_ms=10_000.0)
        )

        async def scenario():
            parked = [
                asyncio.ensure_future(service.query(q, k=5, method="index"))
                for q in queries[:3]
            ]
            await asyncio.sleep(0)
            finished = await service.drain(grace_s=10.0)
            assert finished is True
            results = await asyncio.gather(*parked)
            service.close()
            return results

        results = run(scenario())
        assert len(results) == 3
        direct = [db.query(q, k=5, method="index") for q in queries[:3]]
        for s, d in zip(results, direct):
            assert_same_result(s, d)

    def test_draining_rejects_new_work(self, db, queries):
        service = QueryService(db, ServiceConfig(coalesce_window_ms=0.0))

        async def scenario():
            await service.drain()
            with pytest.raises(ServeError) as excinfo:
                await service.query(queries[0], k=5)
            assert excinfo.value.code == "DRAINING"
            service.close()

        run(scenario())
        rejected = get_registry().counter("sts3_server_rejected_total")
        assert rejected.value(reason="draining") == 1


class TestBookkeeping:
    def test_request_metrics(self, db, queries):
        service = QueryService(db, ServiceConfig(coalesce_window_ms=0.0))

        async def scenario():
            try:
                await service.query(queries[0], k=5)
                await service.query_batch(queries[:2], k=5)
                await service.insert(queries[0])
                await service.verify()
            finally:
                await service.drain()
                service.close()

        run(scenario())
        requests = get_registry().counter("sts3_server_requests_total")
        assert requests.value(op="query", status="ok") == 1
        assert requests.value(op="batch", status="ok") == 1
        assert requests.value(op="insert", status="ok") == 1
        assert requests.value(op="verify", status="ok") == 1
        assert get_registry().gauge("sts3_server_inflight").value() == 0

    def test_insert_reports_destination(self, db, queries):
        service = QueryService(db, ServiceConfig(coalesce_window_ms=0.0))

        async def scenario():
            try:
                return await service.insert(queries[0])
            finally:
                await service.drain()
                service.close()

        report = run(scenario())
        assert report["n_series"] == len(db)
        assert report["path"] in ("direct", "buffered")
        assert report["sealed_segment"] in (True, False)

    def test_batch_engine_size_histogram(self, db, queries):
        # The coalescing hook in core/batch.py: every engine invocation
        # records how many queries it amortized.
        db.query_batch(list(queries[:6]), k=5, method="index")
        sizes = get_registry().histogram(
            "sts3_batch_engine_queries"
        ).series_snapshot()
        assert sizes["count"] == 1
        assert sizes["sum"] == 6
