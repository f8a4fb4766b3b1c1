"""Tests for the exception hierarchy contract."""

import pytest

from repro.exceptions import (
    DatasetError,
    EmptyDatabaseError,
    GridError,
    ParameterError,
    ReproError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ParameterError, GridError, EmptyDatabaseError, DatasetError):
            assert issubclass(exc, ReproError)

    def test_builtin_compatibility(self):
        """Callers catching built-in categories keep working."""
        assert issubclass(ParameterError, ValueError)
        assert issubclass(GridError, ValueError)
        assert issubclass(DatasetError, ValueError)
        assert issubclass(EmptyDatabaseError, LookupError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ParameterError("bad")

    def test_catchable_as_builtin(self):
        with pytest.raises(ValueError):
            raise GridError("bad")


class TestPublicApiRaises:
    """Failure injection: malformed inputs fail loudly with our types."""

    def test_database_rejects_nan_series(self):
        import numpy as np

        from repro import STS3Database

        with pytest.raises(DatasetError):
            STS3Database([np.array([1.0, float("nan")])], sigma=1, epsilon=1)

    def test_database_rejects_nan_query(self):
        import numpy as np

        from repro import STS3Database

        db = STS3Database([np.arange(8.0)], sigma=1, epsilon=1)
        with pytest.raises(DatasetError):
            db.query(np.array([1.0, float("inf")] * 4))

    def test_database_rejects_empty_series(self):
        import numpy as np

        from repro import STS3Database

        with pytest.raises(DatasetError):
            STS3Database([np.array([])], sigma=1, epsilon=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("caller", ["constructor", "query_batch", "shard_build"])
    def test_collection_callers_reject_non_finite_series(self, caller, bad, tmp_path):
        """A collection is validated in one pass; one bad value in series
        ``i`` of many (past the first stacked chunk) is still refused."""
        import numpy as np

        from repro import STS3Database
        from repro.core.shard import ShardedDatabase

        rng = np.random.default_rng(1)
        many = [rng.normal(size=128) for _ in range(5000)]
        many[4321] = many[4321].copy()
        many[4321][77] = bad
        with pytest.raises(DatasetError, match="NaN or infinite"):
            if caller == "constructor":
                STS3Database(many, sigma=1, epsilon=1)
            elif caller == "query_batch":
                db = STS3Database(many[:20], sigma=1, epsilon=1)
                db.query_batch(many, k=1, method="index")
            else:
                ShardedDatabase.build(many, 2, tmp_path / "s", sigma=1, epsilon=1)

    def test_database_rejects_nan_insert(self):
        import numpy as np

        from repro import STS3Database

        db = STS3Database([np.arange(8.0)], sigma=1, epsilon=1)
        with pytest.raises(DatasetError):
            db.insert(np.array([float("nan")] * 8))
