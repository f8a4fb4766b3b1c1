"""Tests for the STS3Database facade, out-points, and buffered updates."""

import numpy as np
import pytest

from repro import STS3Database
from repro.core.database import UpdateBuffer
from repro.core.grid import Bound
from repro.exceptions import EmptyDatabaseError, ParameterError


def _make_db(n=40, length=64, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    series = [rng.normal(size=length) for _ in range(n)]
    defaults = dict(sigma=2, epsilon=0.4)
    defaults.update(kwargs)
    return STS3Database(series, **defaults), series, rng


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(EmptyDatabaseError):
            STS3Database([], sigma=1, epsilon=1)

    def test_normalizes_by_default(self):
        db, _, _ = _make_db()
        for s in db.series:
            assert abs(s.mean()) < 1e-9

    def test_no_normalize(self):
        rng = np.random.default_rng(0)
        raw = [rng.normal(5, 2, size=32) for _ in range(5)]
        db = STS3Database(raw, sigma=2, epsilon=0.4, normalize=False)
        assert abs(db.series[0].mean() - 5) < 2

    def test_len_includes_buffer(self):
        db, _, rng = _make_db(n=10, buffer_capacity=5, value_padding=0.0)
        assert len(db) == 10


class TestQueryMethods:
    def test_all_methods_accept_query(self):
        db, series, rng = _make_db()
        query = series[4] + rng.normal(0, 0.05, size=64)
        for method in ("naive", "index", "pruning", "approximate", "auto"):
            result = db.query(query, k=3, method=method)
            assert len(result.neighbors) == 3

    def test_exact_methods_agree(self):
        db, series, rng = _make_db(n=60)
        query = rng.normal(size=64)
        results = {
            m: db.query(query, k=5, method=m) for m in ("naive", "index", "pruning")
        }
        baseline = results["naive"]
        for m, result in results.items():
            assert result.indices() == baseline.indices(), m
            assert np.allclose(result.similarities(), baseline.similarities()), m

    def test_unknown_method_raises(self):
        db, _, rng = _make_db(n=5)
        with pytest.raises(ParameterError):
            db.query(rng.normal(size=64), method="magic")

    def test_auto_dispatch_short_series(self):
        db, _, _ = _make_db(n=10, length=64)
        assert db._auto_method() == "index"

    def test_auto_dispatch_medium_series(self):
        db, _, _ = _make_db(n=10, length=500)
        assert db._auto_method() == "index"

    def test_auto_dispatch_long_series(self):
        db, _, _ = _make_db(n=6, length=1200)
        assert db._auto_method() == "index"  # never silently approximate

    def test_query_with_out_of_bound_values(self):
        """A query spike outside the database value range must not crash
        and must not match database cells."""
        db, series, rng = _make_db(value_padding=0.0, normalize=False)
        query = series[0].copy()
        query[10] = 50.0  # far outside any z-normalized bound
        result = db.query(query, k=1, method="naive")
        assert 0 <= result.best.index < len(db.series)

    def test_self_query_returns_self(self):
        db, series, _ = _make_db()
        result = db.query(series[7], k=1, method="index")
        assert result.best.index == 7
        assert result.best.similarity == 1.0

    def test_k_capped_at_database_size(self):
        db, _, rng = _make_db(n=5)
        result = db.query(rng.normal(size=64), k=100, method="naive")
        assert len(result.neighbors) == 5


class TestSearcherCaching:
    def test_pruning_cached_per_scale(self):
        db, _, _ = _make_db()
        a = db.pruning_searcher(4)
        b = db.pruning_searcher(4)
        c = db.pruning_searcher(5)
        assert a is b
        assert a is not c

    def test_insert_invalidates_caches(self):
        db, series, rng = _make_db()
        first = db.indexed_searcher()
        db.insert(rng.normal(size=64) * 0.5)  # in-bound after normalize
        second = db.indexed_searcher()
        assert first is not second


class TestInsert:
    def test_in_bound_insert_is_queryable(self):
        db, series, rng = _make_db(value_padding=1.0)
        new = 0.9 * rng.normal(size=64)  # fresh series, in bound after normalize
        before = len(db.series)
        db.insert(new)
        assert len(db.series) == before + 1
        result = db.query(new, k=1, method="naive")
        assert result.best.index == before
        assert result.best.similarity == 1.0

    def test_out_of_bound_insert_goes_to_buffer(self):
        db, _, _ = _make_db(normalize=False, buffer_capacity=10)
        spike = np.zeros(64)
        spike[3] = 100.0
        db.insert(spike)
        assert len(db.buffer) == 1
        assert db.rebuild_count == 0

    def test_buffered_series_found_by_query(self):
        db, _, _ = _make_db(normalize=False, buffer_capacity=10)
        spike = np.zeros(64)
        spike[3] = 100.0
        db.insert(spike)
        result = db.query(spike, k=1, method="naive")
        assert result.best.index == len(db.series)  # provisional index
        assert result.best.similarity == 1.0

    def test_buffer_overflow_triggers_rebuild(self):
        db, _, _ = _make_db(normalize=False, buffer_capacity=2)
        for i in range(2):
            spike = np.zeros(64)
            spike[i] = 100.0 + i
            db.insert(spike)
        assert db.rebuild_count == 1
        assert len(db.buffer) == 0
        assert len(db.series) == 42

    def test_indices_stable_across_flush(self):
        db, _, _ = _make_db(normalize=False, buffer_capacity=3)
        spike = np.zeros(64)
        spike[5] = 77.0
        db.insert(spike)
        provisional = db.query(spike, k=1, method="naive").best.index
        db.flush()
        flushed = db.query(spike, k=1, method="naive").best.index
        assert provisional == flushed
        assert db.query(spike, k=1).best.similarity == 1.0

    def test_insert_reports_where_the_series_landed(self):
        db, _, _ = _make_db(normalize=False, buffer_capacity=2)
        assert db.insert(np.zeros(64)) == {
            "n_series": 41, "buffered": 0, "path": "direct",
            "sealed_segment": False,
        }
        spikes = [np.zeros(64), np.zeros(64)]
        spikes[0][3], spikes[1][4] = 100.0, 101.0
        assert db.insert(spikes[0]) == {
            "n_series": 42, "buffered": 1, "path": "buffered",
            "sealed_segment": False,
        }
        assert db.insert(spikes[1]) == {  # fills the buffer: sealed
            "n_series": 43, "buffered": 0, "path": "buffered",
            "sealed_segment": True,
        }
        assert len(db.catalog.segments) == 2

    def test_flush_noop_when_empty(self):
        db, _, _ = _make_db()
        db.flush()
        assert db.rebuild_count == 0


class TestUpdateBuffer:
    def test_bound_grows(self):
        base = Bound(0.0, 9.0, (-1.0,), (1.0,))
        buf = UpdateBuffer(4, base, col_width=2, row_heights=(0.5,))
        tall = np.zeros(10)
        tall[0] = 5.0
        buf.add(tall)
        assert buf.bound.x_max[0] >= 5.0
        assert len(buf) == 1

    def test_recomputes_sets_on_growth(self):
        base = Bound(0.0, 9.0, (-1.0,), (1.0,))
        buf = UpdateBuffer(4, base, col_width=2, row_heights=(0.5,))
        buf.add(np.linspace(-1, 1, 10))
        first_set = buf.sets[0].copy()
        tall = np.zeros(10)
        tall[0] = 9.0
        buf.add(tall)
        # bound grew, first series re-gridded
        assert len(buf.sets) == 2
        assert not np.array_equal(buf.sets[0], first_set) or buf.grid.n_rows != (5,)

    def test_capacity_validation(self):
        with pytest.raises(ParameterError):
            UpdateBuffer(0, Bound(0, 1, (0.0,), (1.0,)), 1, (1.0,))

    def test_drain_empties(self):
        base = Bound(0.0, 9.0, (-1.0,), (1.0,))
        buf = UpdateBuffer(4, base, col_width=2, row_heights=(0.5,))
        buf.add(np.zeros(10))
        out = buf.drain()
        assert len(out) == 1
        assert len(buf) == 0
