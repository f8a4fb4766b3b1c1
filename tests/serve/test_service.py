"""QueryService behavior: coalescing parity, admission control, drain.

The load-bearing contract: answers served through the coalescing path
are *bit-identical* to direct ``db.query`` calls — including
deadline-degraded and cache-hit answers.  Window shapes are made
deterministic by starting the calls in one loop turn (``gather``): they
all queue before the dispatcher runs, so windows form by its rules
alone, never by racing a timer or a thread.
"""

from __future__ import annotations

import asyncio
import threading

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
        service = QueryService(db)

        async def scenario():
            try:
                return await asyncio.gather(*(
                    service.query(q, k=5, method="index") for q in queries
                ))
            finally:
                await service.drain()

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
        service = QueryService(db)

        async def scenario():
            try:
                k3 = [service.query(q, k=3, method="index") for q in queries[:4]]
                k7 = [service.query(q, k=7, method="index") for q in queries[4:8]]
                return await asyncio.gather(*k3, *k7)
            finally:
                await service.drain()

        served = run(scenario())
        for s, d in zip(served, direct_k3 + direct_k7):
            assert_same_result(s, d)
        # k is answer-affecting, so the two groups must not mix.
        assert window_snapshot()["count"] == 2

    def test_lone_query_is_a_one_query_batch(self, db, queries):
        # A window of one takes the path every window takes, and so
        # does the direct query it must equal: one engine pass each.
        direct = db.query(queries[0], k=5, method="index")
        service = QueryService(db)

        async def scenario():
            try:
                return await service.query(queries[0], k=5, method="index")
            finally:
                await service.drain()

        assert_same_result(run(scenario()), direct)
        windows = window_snapshot()
        assert windows["count"] == 1 and windows["sum"] == 1
        engine = get_registry().histogram("sts3_batch_engine_queries")
        assert engine.series_snapshot()["count"] == 2
        assert engine.series_snapshot()["sum"] == 2

    def test_lone_query_on_idle_engine_arms_no_timer(self, db, queries):
        # Nobody else is coming: the query must run at once, not wait
        # for a window to time out.
        direct = db.query(queries[0], k=5, method="index")
        service = QueryService(db)

        def no_timers(*args, **kwargs):
            raise AssertionError("a served query armed a timer")

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_later = loop.call_at = no_timers
            try:
                return await service.query(queries[0], k=5, method="index")
            finally:
                del loop.call_later, loop.call_at
                await service.drain()

        assert_same_result(run(scenario()), direct)

    def test_max_coalesce_flushes_early(self, db, queries):
        service = QueryService(db, ServiceConfig(max_coalesce=4))

        async def scenario():
            try:
                return await asyncio.gather(*(
                    service.query(q, k=5, method="index") for q in queries[:4]
                ))
            finally:
                await service.drain()

        served = run(scenario())
        assert len(served) == 4
        assert window_snapshot()["sum"] == 4

    def test_queue_splits_at_max_coalesce(self, db, queries):
        direct = [db.query(q, k=5, method="index") for q in queries[:6]]
        service = QueryService(db, ServiceConfig(max_coalesce=4))
        widths = []
        batch = db.query_batch

        def recording_batch(batch_queries, **kwargs):
            widths.append(len(batch_queries))
            return batch(batch_queries, **kwargs)

        db.query_batch = recording_batch

        async def scenario():
            try:
                return await asyncio.gather(*(
                    service.query(q, k=5, method="index") for q in queries[:6]
                ))
            finally:
                await service.drain()

        for s, d in zip(run(scenario()), direct):
            assert_same_result(s, d)
        assert widths == [4, 2]  # oldest four first, the rest next
        windows = window_snapshot()
        assert windows["count"] == 2 and windows["sum"] == 6

    def test_next_window_waits_for_returning_callers(self, db, queries):
        # Three queries that arrive in one loop turn share a window.
        # After it the dispatcher waits a few turns (_SETTLE_TURNS) for
        # its callers: clients that come back on three different turns
        # still share the next window.
        service = QueryService(db)

        async def client(i):
            await service.query(queries[i], k=5, method="index")
            for _ in range(i):
                await asyncio.sleep(0)
            return await service.query(queries[i + 3], k=5, method="index")

        async def scenario():
            try:
                return await asyncio.gather(*(client(i) for i in range(3)))
            finally:
                await service.drain()

        for i, served in enumerate(run(scenario())):
            assert_same_result(served, db.query(queries[i + 3], k=5, method="index"))
        windows = window_snapshot()
        assert windows["count"] == 2 and windows["sum"] == 6

    def test_signatures_progress_under_sustained_load(self, db, queries):
        # Three closed-loop k=3 clients keep a k=3 window queued at all
        # times; a k=7 query that arrived behind them must still be
        # served while they are busy, not after they stop.
        direct_k7 = db.query(queries[11], k=7, method="index")
        expected_k3 = {
            i: db.query(q, k=3, method="index") for i, q in enumerate(queries)
        }
        service = QueryService(db, ServiceConfig(max_coalesce=2))
        served_k = []  # the k of each engine call, in order
        scalar, batch = db.query, db.query_batch

        def recording_query(series, k, **kwargs):
            served_k.append(k)
            return scalar(series, k=k, **kwargs)

        def recording_batch(batch_queries, k, **kwargs):
            served_k.append(k)
            return batch(batch_queries, k=k, **kwargs)

        db.query, db.query_batch = recording_query, recording_batch

        async def k3_client(first: int) -> int:
            for step in range(6):
                i = (first + step) % 11
                served = await service.query(queries[i], k=3, method="index")
                assert_same_result(served, expected_k3[i])
            return first

        async def scenario():
            try:
                clients = [
                    asyncio.ensure_future(k3_client(i)) for i in range(3)
                ]
                k7 = asyncio.ensure_future(
                    service.query(queries[11], k=7, method="index")
                )
                served_k7 = await k7
                clients_busy = not all(c.done() for c in clients)
                await asyncio.gather(*clients)
                return served_k7, clients_busy
            finally:
                await service.drain()

        served_k7, clients_busy = run(scenario())
        assert_same_result(served_k7, direct_k7)
        assert clients_busy
        # FIFO: the k=7 window was queued third, so it runs third.
        assert served_k[:3] == [3, 3, 7]
        assert window_snapshot()["sum"] == 3 * 6 + 1

    def test_failed_window_fails_only_its_own_queries(self, db, queries):
        direct_k7 = [db.query(q, k=7, method="index") for q in queries[2:4]]
        service = QueryService(db)
        batch = db.query_batch

        def failing_for_k3(batch_queries, k, **kwargs):
            if k == 3:
                raise RuntimeError("engine fault")
            return batch(batch_queries, k=k, **kwargs)

        db.query_batch = failing_for_k3

        async def scenario():
            try:
                k3 = [service.query(q, k=3, method="index") for q in queries[:2]]
                k7 = [service.query(q, k=7, method="index") for q in queries[2:4]]
                # The dispatcher is not wedged: the k=7 window and a later
                # query are still served.
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*k3, *k7, return_exceptions=True), timeout=10
                )
                after = await asyncio.wait_for(
                    service.query(queries[4], k=5, method="index"), timeout=10
                )
                return outcomes, after
            finally:
                await service.drain()

        outcomes, after = run(scenario())
        for failed in outcomes[:2]:
            assert isinstance(failed, RuntimeError)
            assert str(failed) == "engine fault"
        for s, d in zip(outcomes[2:], direct_k7):
            assert_same_result(s, d)
        assert_same_result(after, db.query(queries[4], k=5, method="index"))
        assert window_snapshot()["count"] == 3

    def test_later_engine_work_does_not_overtake_queued_windows(
        self, db, queries
    ):
        # Windows wait for the busy engine, but an insert submitted after
        # them must not jump the queue — or a stream of overlapping
        # inserts would starve queued queries.
        service = QueryService(db)
        order = []
        batch, insert = db.query_batch, db.insert

        def recording_batch(batch_queries, **kwargs):
            order.append("window")
            return batch(batch_queries, **kwargs)

        def recording_insert(series):
            order.append("insert")
            return insert(series)

        db.query_batch, db.insert = recording_batch, recording_insert

        async def scenario():
            try:
                await asyncio.gather(*[
                    service.query(queries[0], k=5, method="index"),
                    service.query(queries[1], k=5, method="index"),
                    service.insert(queries[2]),
                ])
            finally:
                await service.drain()

        run(scenario())
        assert order == ["window", "insert"]

    def test_window_disabled_still_parity(self, db, queries):
        direct = [db.query(q, k=5, method="index") for q in queries[:3]]
        service = QueryService(db, ServiceConfig(max_coalesce=1))

        async def scenario():
            try:
                return await asyncio.gather(*(
                    service.query(q, k=5, method="index") for q in queries[:3]
                ))
            finally:
                await service.drain()

        for s, d in zip(run(scenario()), direct):
            assert_same_result(s, d)
        # Arriving together, yet never batched: a window of one each,
        # so every engine pass (three direct, three served) is one wide.
        windows = window_snapshot()
        assert windows["count"] == windows["sum"] == 3
        engine = get_registry().histogram("sts3_batch_engine_queries")
        assert engine.series_snapshot()["count"] == 6
        assert engine.series_snapshot()["sum"] == 6


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
        service = QueryService(db)

        async def scenario():
            try:
                return await service.query(
                    query, k=5, method="index", deadline_ms=100
                )
            finally:
                await service.drain()

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
        service = QueryService(db)

        async def scenario():
            try:
                first = await service.query(queries[0], k=5, method="index")
                second = await service.query(queries[0], k=5, method="index")
                return first, second
            finally:
                await service.drain()

        first, second = run(scenario())
        assert_same_result(first, direct)
        assert_same_result(second, direct)

    def test_coalesced_batch_also_hits_cache(self, workload, queries):
        db = STS3Database(
            workload.database, sigma=3, epsilon=0.5, cache_bytes=4 << 20
        )
        direct = [db.query(q, k=5, method="index") for q in queries[:4]]
        service = QueryService(db)

        async def scenario():
            try:
                return await asyncio.gather(
                    *(service.query(q, k=5, method="index")
                      for q in queries[:4])
                )
            finally:
                await service.drain()

        for s, d in zip(run(scenario()), direct):
            assert_same_result(s, d)


class TestAdmission:
    def test_busy_when_queue_full(self, db, queries):
        service = QueryService(db, ServiceConfig(max_pending=1))

        async def scenario():
            first = asyncio.ensure_future(
                service.query(queries[0], k=5, method="index")
            )
            await asyncio.sleep(0)  # it is admitted and queued, not answered
            with pytest.raises(ServeError) as excinfo:
                await service.query(queries[1], k=5, method="index")
            assert excinfo.value.code == "BUSY"
            await service.drain()
            await first

        run(scenario())
        rejected = get_registry().counter("sts3_server_rejected_total")
        assert rejected.value(reason="queue_full") == 1

    def test_rate_limit_per_client(self, db, queries):
        service = QueryService(
            db,
            ServiceConfig(rate_limit=1.0, rate_burst=2),
        )
        service.clock = lambda: 0.0  # frozen: buckets never refill

        async def scenario():
            await service.query(queries[0], k=5, client="alice")
            await service.query(queries[1], k=5, client="alice")
            with pytest.raises(ServeError) as excinfo:
                await service.query(queries[2], k=5, client="alice")
            assert excinfo.value.code == "RATE_LIMITED"
            # An unrelated client has its own bucket.
            await service.query(queries[3], k=5, client="bob")

        run(scenario())
        rejected = get_registry().counter("sts3_server_rejected_total")
        assert rejected.value(reason="rate_limited") == 1

    def test_bucket_refills_with_time(self, db, queries):
        service = QueryService(
            db,
            ServiceConfig(rate_limit=10.0, rate_burst=1),
        )
        clock = ticking_clock(0.5)  # 0.5 s between admissions
        service.clock = clock

        async def scenario():
            # burst of 1, but 0.5 s at 10 tokens/s refills plenty.
            for q in queries[:3]:
                await service.query(q, k=5, client="alice")

        run(scenario())  # no ServeError: refill kept pace

    def test_batch_costs_its_size_in_tokens(self, db, queries):
        service = QueryService(
            db,
            ServiceConfig(rate_limit=1.0, rate_burst=4),
        )
        service.clock = lambda: 0.0

        async def scenario():
            await service.query_batch(queries[:3], k=5, client="alice")
            with pytest.raises(ServeError) as excinfo:
                await service.query_batch(queries[:3], k=5, client="alice")
            assert excinfo.value.code == "RATE_LIMITED"

        run(scenario())


class TestDrain:
    def test_drain_flushes_open_windows(self, db, queries):
        service = QueryService(db)

        async def scenario():
            queued = [
                asyncio.ensure_future(service.query(q, k=5, method="index"))
                for q in queries[:3]
            ]
            draining = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0)
            assert not draining.done()  # the queued window has not run
            assert await draining is True
            return await asyncio.gather(*queued)

        results = run(scenario())
        assert len(results) == 3
        assert window_snapshot()["count"] == 1
        direct = [db.query(q, k=5, method="index") for q in queries[:3]]
        for s, d in zip(results, direct):
            assert_same_result(s, d)

    def test_draining_rejects_new_work(self, db, queries):
        service = QueryService(db)

        async def scenario():
            await service.drain()
            with pytest.raises(ServeError) as excinfo:
                await service.query(queries[0], k=5)
            assert excinfo.value.code == "DRAINING"

        run(scenario())
        rejected = get_registry().counter("sts3_server_rejected_total")
        assert rejected.value(reason="draining") == 1


class TestBookkeeping:
    def test_request_metrics(self, db, queries):
        service = QueryService(db)

        async def scenario():
            try:
                await service.query(queries[0], k=5)
                await service.query_batch(queries[:2], k=5)
                await service.insert(queries[0])
                await service.verify()
            finally:
                await service.drain()

        run(scenario())
        requests = get_registry().counter("sts3_server_requests_total")
        assert requests.value(op="query", status="ok") == 1
        assert requests.value(op="batch", status="ok") == 1
        assert requests.value(op="insert", status="ok") == 1
        assert requests.value(op="verify", status="ok") == 1
        assert get_registry().gauge("sts3_server_inflight").value() == 0

    def test_serving_starts_no_thread(self, db, queries):
        # Every engine call runs on the event loop: queries, a batch, an
        # insert and verify start no engine thread (nor any other).
        before = set(threading.enumerate())
        service = QueryService(db)

        async def scenario():
            await asyncio.gather(
                service.query(queries[0], k=5), service.query(queries[1], k=5)
            )
            await service.query_batch(queries[:2], k=5)
            await service.insert(queries[2])
            await service.verify()
            return set(threading.enumerate())

        during = run(scenario())
        assert during == before
        assert not [t for t in during if t.name.startswith("sts3-engine")]

    def test_insert_reports_destination(self, db, queries):
        service = QueryService(db)

        async def scenario():
            try:
                return await service.insert(queries[0])
            finally:
                await service.drain()

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
