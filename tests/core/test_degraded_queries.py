"""Degraded-mode querying: deadlines, quarantine, and the ladder.

The planner's degradation ladder (docs/durability.md) trades
completeness for timeliness instead of raising: every segment runs the
method it was planned with, and segments that would start past the
deadline budget are skipped (the first always runs).  Quarantined
segments degrade the answer unconditionally.  All of it is surfaced on
the result (``complete`` / ``skipped_segments`` / ``degraded_reason``)
and in ``sts3_degraded_queries_total{reason}``.

Time is injected: ``planner.clock`` is swapped for a deterministic
tick iterator, so these tests never depend on machine speed.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core import QuarantineRecord
from repro.core.planner import SMALL_SEGMENT
from repro.obs import get_registry

from ..conftest import answer_hex, ticking_clock

LENGTH = 48


@pytest.fixture
def db():
    """Three segments: one large base + two small deltas."""
    rng = np.random.default_rng(21)
    base = [rng.normal(size=LENGTH) for _ in range(SMALL_SEGMENT + 16)]
    database = STS3Database(base, sigma=2, epsilon=0.5, buffer_capacity=4)
    for _ in range(4):  # longer => out-of-bound => buffered => sealed
        database.insert(rng.normal(size=LENGTH + 8))
    for _ in range(4):  # longer still => out of the new bound too
        database.insert(rng.normal(size=LENGTH + 32))
    assert len(database.catalog.segments) == 3
    assert len(database.catalog.segments[0]) >= SMALL_SEGMENT
    return database


def query_for(db):
    rng = np.random.default_rng(77)
    return rng.normal(size=LENGTH)


class TestDeadlineLadder:
    def test_no_deadline_is_complete(self, db):
        result = db.query(query_for(db), k=5, method="index")
        assert result.complete is True
        assert result.skipped_segments == []
        assert result.degraded_reason is None

    def test_generous_deadline_is_complete(self, db):
        db.planner.clock = ticking_clock(0.0001)  # 0.1 ms per call
        result = db.query(query_for(db), k=5, method="index", deadline_ms=1000)
        assert result.complete is True
        assert result.degraded_reason is None

    def test_past_half_budget_stays_exact(self, db):
        # 30 ms per clock call against a 100 ms budget: the three
        # segments start at 30, 60 and 90 ms — two of them past half the
        # budget, all inside it — and the answer is the exact one.
        exact = db.query(query_for(db), k=5, method="index")
        planned = [p.method for p in db.planner.plan("index")]
        db.planner.clock = ticking_clock(0.03)
        result = db.query(query_for(db), k=5, method="index", deadline_ms=100)
        assert result.complete is True
        assert result.degraded_reason is None
        assert result.skipped_segments == []
        assert [p.method for p in db.planner.last_plans] == planned
        assert answer_hex(result) == answer_hex(exact)

    def test_hard_deadline_skips_segments(self, db):
        db.planner.clock = ticking_clock(0.06)
        result = db.query(query_for(db), k=5, method="index", deadline_ms=100)
        # segments past the budget are skipped by name
        assert result.skipped_segments
        assert all(s.startswith("segment-") for s in result.skipped_segments)

    def test_first_segment_always_runs(self, db):
        # a clock so fast the budget is blown before segment 0: the
        # ladder still executes one segment rather than answering empty.
        db.planner.clock = ticking_clock(10.0)
        result = db.query(query_for(db), k=5, method="index", deadline_ms=1)
        assert result.complete is False
        assert len(result.indices()) == 5
        assert len(result.skipped_segments) == 2

    def test_no_plan_is_rewritten(self, db):
        for method in ("naive", "index", "pruning"):
            planned = [p.method for p in db.planner.plan(method)]
            for step in (0.0001, 0.03, 0.06, 0.2, 10.0):
                db.planner.clock = ticking_clock(step)
                result = db.query(
                    query_for(db), k=5, method=method, deadline_ms=100
                )
                assert [p.method for p in db.planner.last_plans] == planned
                # what the deadline costs is lost by name, not by method
                assert result.complete is (not result.skipped_segments)
                assert len(set(result.skipped_segments)) < len(planned)

    def test_degradation_counted_by_reason(self, db):
        key = 'sts3_degraded_queries_total{reason="deadline"}'
        before = get_registry().snapshot()["counters"].get(key, 0)
        db.planner.clock = ticking_clock(0.06)
        db.query(query_for(db), k=5, method="index", deadline_ms=100)
        after = get_registry().snapshot()["counters"].get(key, 0)
        assert after == before + 1


class TestQuarantineDegradation:
    def test_quarantine_degrades_every_query(self, db):
        db.catalog.quarantine(QuarantineRecord("segment-9", 4, "checksum mismatch"))
        result = db.query(query_for(db), k=5, method="index")
        assert result.complete is False
        assert result.degraded_reason == "quarantine"
        assert result.skipped_segments == ["segment-9"]

    def test_quarantine_degrades_single_segment_db(self):
        """The fast single-segment passthrough must not hide the loss."""
        rng = np.random.default_rng(3)
        db = STS3Database(
            [rng.normal(size=LENGTH) for _ in range(12)], sigma=2, epsilon=0.5
        )
        db.catalog.quarantine(QuarantineRecord("segment-1", 7, "checksum mismatch"))
        result = db.query(rng.normal(size=LENGTH), k=3, method="index")
        assert result.complete is False
        assert result.degraded_reason == "quarantine"

    def test_quarantine_plus_deadline_reasons_combine(self, db):
        db.catalog.quarantine(QuarantineRecord("segment-9", 4, "checksum mismatch"))
        db.planner.clock = ticking_clock(0.06)
        result = db.query(query_for(db), k=5, method="index", deadline_ms=100)
        assert result.complete is False
        assert result.degraded_reason == "deadline+quarantine"
        assert "segment-9" in result.skipped_segments

    def test_quarantine_degrades_batch_queries(self, db):
        db.catalog.quarantine(QuarantineRecord("segment-9", 4, "checksum mismatch"))
        rng = np.random.default_rng(13)
        results = db.query_batch(
            [rng.normal(size=LENGTH) for _ in range(3)], k=3, method="index"
        )
        assert len(results) == 3
        for result in results:
            assert result.complete is False
            assert result.degraded_reason == "quarantine"


class TestBatchDeadline:
    def test_deadline_forces_scalar_path_and_degrades(self, db):
        db.planner.clock = ticking_clock(0.06)
        rng = np.random.default_rng(14)
        results = db.query_batch(
            [rng.normal(size=LENGTH) for _ in range(3)],
            k=3,
            method="index",
            deadline_ms=100,
        )
        assert len(results) == 3
        assert any(r.complete is False for r in results)
        for result in results:
            assert len(result.indices()) == 3  # never empty

    def test_batch_without_deadline_unchanged(self, db):
        rng = np.random.default_rng(15)
        queries = [rng.normal(size=LENGTH) for _ in range(3)]
        batch = db.query_batch(queries, k=3, method="index")
        for q, result in zip(queries, batch):
            scalar = db.query(q, k=3, method="index")
            assert result.indices() == scalar.indices()
            assert result.similarities() == scalar.similarities()
            assert result.complete is True
