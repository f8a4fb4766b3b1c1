"""Query planner tests: per-segment method choice and execution paths.

The planner's contract: the base segment honours the requested method
verbatim, delta segments are always searched exactly (tiny ones
naively), and the merged global answer is deterministic and identical
whether a batch runs sequentially, forked, or spawned.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core import QuarantineRecord
from repro.core.planner import SMALL_SEGMENT, QueryPlanner, SegmentPlan
from repro.core.setrep import transform_query
from repro.data.workloads import ecg_workload

from ..conftest import answer_hex, ticking_clock


def _spiked(rng, length, spike):
    series = rng.normal(size=length)
    series[int(rng.integers(0, length))] = spike
    return series


@pytest.fixture
def segmented_db():
    rng = np.random.default_rng(21)
    db = STS3Database(
        [rng.normal(size=40) for _ in range(25)],
        sigma=2, epsilon=0.4, normalize=False, buffer_capacity=3,
    )
    for i in range(3):
        db.insert(_spiked(rng, 40, 30.0 + 10.0 * i))
    assert len(db.catalog.segments) == 2
    return db, rng


class TestPlanning:
    def test_single_segment_honours_request(self):
        rng = np.random.default_rng(22)
        db = STS3Database(
            [rng.normal(size=40) for _ in range(10)], sigma=2, epsilon=0.4
        )
        for method in ("naive", "index", "pruning", "approximate"):
            plans = db.planner.plan(method)
            assert [p.method for p in plans] == [method]
            assert [p.offset for p in plans] == [0]

    def test_small_delta_segments_run_naive(self, segmented_db):
        db, _ = segmented_db
        for method in ("index", "pruning", "approximate"):
            plans = db.planner.plan(method)
            assert plans[0].method == method
            assert plans[1].method == "naive"  # 3 series < SMALL_SEGMENT
            assert plans[1].offset == 25

    def test_large_delta_never_runs_approximate(self, segmented_db):
        db, rng = segmented_db
        # Grow the delta segment past the naive threshold via direct
        # inserts (in-bound for the sealed segment's grown bound).
        while len(db.catalog.segments[-1]) < SMALL_SEGMENT:
            db.insert(np.clip(rng.normal(size=40), -1.0, 1.0))
        plans = db.planner.plan("approximate")
        assert plans[0].method == "approximate"
        assert plans[1].method == "index"
        plans = db.planner.plan("pruning")
        assert [p.method for p in plans] == ["pruning", "pruning"]

    def test_plans_are_frozen_records(self, segmented_db):
        db, _ = segmented_db
        plan = db.planner.plan("index")[0]
        assert isinstance(plan, SegmentPlan)
        with pytest.raises(AttributeError):
            plan.method = "naive"

    def test_calibration_goes_stale_with_the_catalog(self, segmented_db):
        db, rng = segmented_db
        db.calibrate([rng.normal(size=40)])
        assert db.planner.calibrated_method in ("naive", "index", "pruning")
        db.insert(np.clip(rng.normal(size=40), -1.0, 1.0))
        assert db.planner.calibrated_method is None

    def test_resolve_auto_spans_all_segments(self, segmented_db):
        db, _ = segmented_db
        planner = QueryPlanner(db.catalog)
        # one answer for the whole catalog, whatever the series lengths
        assert planner.resolve_auto() == "index"
        planner.calibrated_method = "naive"
        assert planner.resolve_auto() == "naive"


class TestDefaultMethod:
    """``auto`` is exact at every length and engages the batch kernel."""

    @pytest.mark.parametrize("length", [128, 512, 2048])
    def test_default_answers_match_naive(self, length):
        workload = ecg_workload(80, 4, length, seed=3)
        db = STS3Database(workload.database, sigma=3, epsilon=0.58)
        naive = [
            answer_hex(db.query(q, k=10, method="naive"))
            for q in workload.queries
        ]
        assert [answer_hex(db.query(q, k=10)) for q in workload.queries] == naive
        batch = db.query_batch(workload.queries, k=10)
        assert [answer_hex(r) for r in batch] == naive

    def test_default_batch_runs_a_batch_kernel(self):
        workload = ecg_workload(80, 4, 128, seed=3)
        db = STS3Database(workload.database, sigma=3, epsilon=0.58)
        db.query_batch(workload.queries, k=5)
        kernels = [plan.kernel for plan in db.planner.last_plans]
        assert kernels and "scalar" not in kernels and None not in kernels

    def test_batch_of_one_runs_a_kernel_other_than_the_gemm(self):
        # Every scalar query of a sharded engine is this call in each
        # worker: it must stay in the batch engine (not the scalar
        # loop) and must not become a one-row BLAS product.
        workload = ecg_workload(80, 1, 128, seed=3)
        db = STS3Database(workload.database, sigma=3, epsilon=0.58)
        db.query_batch([workload.queries[0]], k=5)
        kernels = [plan.kernel for plan in db.planner.last_plans]
        assert kernels and set(kernels) <= {"bitset", "postings"}


def _layout(name):
    """A database in one of the layouts the reference parity runs on."""
    rng = np.random.default_rng(31)
    db = STS3Database(
        [rng.normal(size=48) for _ in range(SMALL_SEGMENT + 40)],
        sigma=2, epsilon=0.5, normalize=False,
        buffer_capacity=SMALL_SEGMENT + 8,
    )
    if name == "one-segment":
        return db
    # Longer series fall outside the bound: they are buffered, and a
    # full buffer seals as an index-planned delta segment; one more
    # out-of-bound series stays in the buffer.
    for _ in range(SMALL_SEGMENT + 8):
        db.insert(rng.normal(size=56))
    db.insert(rng.normal(size=48) * 3.0)
    assert [p.method for p in db.planner.plan("index")] == ["index", "index"]
    assert len(db.buffer) == 1
    if name == "quarantine":
        db.catalog.quarantine(QuarantineRecord("segment-9", 4, "checksum mismatch"))
    if name == "deadline":
        db.planner.clock = ticking_clock(0.06)
    return db


def _reference(db, series, k, skipped):
    """The answer Algorithm 3's reference searcher gives: each executed
    segment's ``IndexedSearcher.query`` (naive on tiny deltas), merged
    by the planner, degraded as the engine's answer was."""
    prepared = db._prepare(series)
    results, plans = [], []
    with db.catalog.pinned() as snapshot:
        for segment, plan in zip(snapshot.segments, db.planner.plan("index")):
            if f"segment-{segment.segment_id}" in skipped:
                continue
            query_set = transform_query(prepared, segment.grid)
            searcher = (
                segment.indexed_searcher()
                if plan.method == "index"
                else segment.naive_searcher()
            )
            results.append(searcher.query(query_set, k=k))
            plans.append(plan)
        if len(results) == 1 and not len(db.buffer):
            return results[0]
        return db.planner._merge(results, plans, prepared, k, db.buffer, snapshot)


class TestReferenceParity:
    """An ``index`` query is a one-query engine batch; it must answer
    what the reference ``IndexedSearcher.query`` does, hex for hex with
    equal counters, whatever the catalog looks like."""

    @pytest.mark.parametrize(
        "layout", ["one-segment", "segments-and-buffer", "quarantine", "deadline"]
    )
    def test_index_query_matches_reference_and_naive(self, layout):
        db = _layout(layout)
        rng = np.random.default_rng(32)
        deadline = 100 if layout == "deadline" else None
        for length in (48, 48, 60):  # the last one is out of bound
            series = rng.normal(size=length)
            result = db.query(series, k=7, method="index", deadline_ms=deadline)
            kernel = db.planner.last_plans[0].kernel
            engine = db.catalog.segments[0].batch_engine()
            assert kernel in {"postings", "dense", "bitset"}
            assert kernel == engine.last_kernels[-1]
            reference = _reference(db, series, 7, result.skipped_segments)
            assert answer_hex(result) == answer_hex(reference)
            assert result.stats == reference.stats
            if layout == "one-segment":
                assert result.complete and not result.skipped_segments
            elif layout == "segments-and-buffer":
                naive = db.query(series, k=7, method="naive")
                assert answer_hex(result) == answer_hex(naive)
                assert result.complete
            elif layout == "quarantine":
                assert result.degraded_reason == "quarantine"
                assert result.skipped_segments == ["segment-9"]
            else:
                assert result.degraded_reason == "deadline"
                assert result.skipped_segments
            if layout != "segments-and-buffer":
                naive = db.query(series, k=7, method="naive", deadline_ms=deadline)
                assert answer_hex(naive) == answer_hex(result)


class TestMergeDeterminism:
    def test_duplicate_series_across_segments_tie_break(self):
        """A series stored in both the base and a sealed segment ties at
        similarity 1.0; the smaller global index must win."""
        rng = np.random.default_rng(23)
        base = [rng.normal(size=32) for _ in range(8)]
        db = STS3Database(
            base, sigma=2, epsilon=0.5, normalize=False, buffer_capacity=2
        )
        twin = base[2].copy()
        twin[0] = 50.0  # force it through the buffer
        db.insert(twin)
        db.insert(_spiked(rng, 32, 70.0))
        assert len(db.catalog.segments) == 2
        result = db.query(twin, k=2, method="naive")
        # The sealed twin matches exactly (sim 1.0) and sits at global
        # index 8; no base series can beat it, and ties prefer the
        # smaller index — determinism across segment boundaries.
        assert result.best.index == 8
        assert result.best.similarity == 1.0
        sims = [n.similarity for n in result.neighbors]
        assert sims == sorted(sims, reverse=True)
