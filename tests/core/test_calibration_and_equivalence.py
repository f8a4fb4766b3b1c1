"""Tests for calibrated auto-dispatch and randomized index equivalence."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import STS3Database
from repro.core import DictInvertedIndex, IndexedSearcher
from repro.core import database as database_module
from repro.exceptions import ParameterError


class TestCalibration:
    @pytest.fixture
    def db(self):
        rng = np.random.default_rng(0)
        return STS3Database(
            [rng.normal(size=64) for _ in range(50)], sigma=2, epsilon=0.4
        )

    def test_calibrate_pins_auto(self, db):
        rng = np.random.default_rng(1)
        timings = db.calibrate([rng.normal(size=64) for _ in range(3)])
        assert set(timings) == {"naive", "index", "pruning"}
        assert db._auto_method() == min(timings, key=timings.get)

    def test_calibrated_auto_queries_work(self, db):
        rng = np.random.default_rng(2)
        db.calibrate([rng.normal(size=64)])
        result = db.query(rng.normal(size=64), k=3, method="auto")
        assert len(result.neighbors) == 3

    def test_calibration_excludes_approximate(self, db):
        rng = np.random.default_rng(3)
        db.calibrate([rng.normal(size=64)])
        assert db._calibrated_method in ("naive", "index", "pruning")

    def test_insert_invalidates_calibration(self, db):
        rng = np.random.default_rng(4)
        db.calibrate([rng.normal(size=64)])
        db.insert(0.5 * rng.normal(size=64))
        assert db._calibrated_method is None  # falls back to index

    def test_empty_sample_raises(self, db):
        with pytest.raises(ParameterError):
            db.calibrate([])

    def test_times_warm_searches_past_the_result_cache(self, monkeypatch):
        """Neither structure builds nor cache hits may decide the pin.

        Time is faked: every planner execution costs its method a fixed
        number of seconds, so the timings say exactly which executions
        sat inside the timed region.
        """
        rng = np.random.default_rng(5)
        db = STS3Database(
            [rng.normal(size=64) for _ in range(50)],
            sigma=2, epsilon=0.4, cache_bytes=1 << 20,
        )
        cost = {"naive": 3.0, "index": 1.0, "pruning": 2.0}
        now = [0.0]
        executed = []
        real_execute = db.planner.execute

        def execute(prepared, k, method, **kwargs):
            executed.append(method)
            now[0] += cost[method]
            return real_execute(prepared, k, method, **kwargs)

        monkeypatch.setattr(db.planner, "execute", execute)
        monkeypatch.setattr(
            database_module, "time", SimpleNamespace(perf_counter=lambda: now[0])
        )
        samples = [rng.normal(size=64) for _ in range(3)]
        for _ in range(2):  # the second run would be all cache hits
            executed.clear()
            timings = db.calibrate(samples, k=2)
            # one untimed warm-up + the samples, per method, every time
            assert executed == [m for m in cost for _ in range(1 + len(samples))]
            assert timings == {m: len(samples) * c for m, c in cost.items()}
            assert db._calibrated_method == "index"


sets_strategy = st.lists(
    st.lists(st.integers(0, 80), min_size=1, max_size=30),
    min_size=1,
    max_size=15,
).map(lambda lists: [np.unique(np.asarray(xs, dtype=np.int64)) for xs in lists])


class TestIndexLayoutEquivalence:
    @given(sets_strategy, st.lists(st.integers(0, 80), min_size=1, max_size=20),
           st.integers(1, 6))
    @settings(max_examples=40)
    def test_dense_and_dict_agree(self, sets, query_list, k):
        query = np.unique(np.asarray(query_list, dtype=np.int64))
        dense = IndexedSearcher(sets).query(query, k=k)
        sparse = DictInvertedIndex(sets).query(query, k=k)
        assert dense.indices() == sparse.indices()
        assert dense.similarities() == pytest.approx(sparse.similarities())

    @given(sets_strategy, st.lists(st.integers(0, 80), min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_counts_agree(self, sets, query_list):
        query = np.unique(np.asarray(query_list, dtype=np.int64))
        a = IndexedSearcher(sets).intersection_counts(query)
        b = DictInvertedIndex(sets).intersection_counts(query)
        assert np.array_equal(a, b)
