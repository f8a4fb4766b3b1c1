"""Query planner tests: per-segment method choice and execution paths.

The planner's contract: the base segment honours the requested method
verbatim, delta segments are always searched exactly (tiny ones
naively), and the merged global answer is deterministic and identical
whether a batch runs sequentially, forked, or spawned.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core.planner import SMALL_SEGMENT, QueryPlanner, SegmentPlan
from repro.data.workloads import ecg_workload

from ..conftest import answer_hex


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
