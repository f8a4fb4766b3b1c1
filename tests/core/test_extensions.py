"""Tests for the paper's extension features.

Per-axis value cell sizes (Section 5.1), batch queries, and their
interaction with the standard search paths.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core.grid import Bound, Grid
from repro.exceptions import ParameterError


class TestPerAxisEpsilons:
    def _bound(self):
        return Bound(0.0, 9.0, (-1.0, -2.0), (1.0, 2.0))

    def test_construction(self):
        grid = Grid.from_axis_cell_sizes(self._bound(), sigma=2, epsilons=(0.5, 1.0))
        assert grid.n_rows == (5, 5)

    def test_differs_from_shared_epsilon(self):
        shared = Grid.from_cell_sizes(self._bound(), sigma=2, epsilon=0.5)
        per_axis = Grid.from_axis_cell_sizes(self._bound(), sigma=2, epsilons=(0.5, 1.0))
        assert shared.n_rows != per_axis.n_rows

    def test_validation(self):
        with pytest.raises(ParameterError):
            Grid.from_axis_cell_sizes(self._bound(), sigma=0, epsilons=(1.0, 1.0))
        with pytest.raises(ParameterError):
            Grid.from_axis_cell_sizes(self._bound(), sigma=1, epsilons=(1.0,))
        with pytest.raises(ParameterError):
            Grid.from_axis_cell_sizes(self._bound(), sigma=1, epsilons=(1.0, -1.0))

    def test_database_accepts_tuple_epsilon(self):
        rng = np.random.default_rng(0)
        series = [rng.normal(size=(40, 2)) for _ in range(15)]
        db = STS3Database(series, sigma=2, epsilon=(0.4, 0.8))
        result = db.query(series[3], k=1, method="naive")
        assert result.best.index == 3
        assert result.best.similarity == 1.0

    def test_tuple_epsilon_survives_rebuild(self):
        rng = np.random.default_rng(1)
        series = [rng.normal(size=(20, 2)) for _ in range(5)]
        db = STS3Database(
            series, sigma=2, epsilon=(0.4, 0.8), normalize=False, buffer_capacity=1
        )
        spike = np.zeros((20, 2))
        spike[0, 0] = 99.0
        db.insert(spike)  # forces a rebuild through the buffer
        assert db.rebuild_count == 1
        assert db.grid.row_heights == (0.4, 0.8)


class TestQueryBatch:
    @pytest.fixture(scope="class")
    def db_and_queries(self):
        rng = np.random.default_rng(2)
        series = [rng.normal(size=64) for _ in range(60)]
        queries = [rng.normal(size=64) for _ in range(12)]
        return STS3Database(series, sigma=2, epsilon=0.4), queries

    def test_sequential_matches_individual(self, db_and_queries):
        db, queries = db_and_queries
        batch = db.query_batch(queries, k=3, method="index")
        for q, result in zip(queries, batch):
            single = db.query(q, k=3, method="index")
            assert result.indices() == single.indices()

    def test_auto_method_resolved_once(self, db_and_queries):
        db, queries = db_and_queries
        results = db.query_batch(queries[:3], k=1, method="auto")
        assert len(results) == 3
