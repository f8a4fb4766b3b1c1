"""Tests for the shared container types."""

import numpy as np
import pytest

from repro.exceptions import DatasetError
from repro.types import (
    ClassificationDataset,
    LabeledDataset,
    Workload,
    as_series,
    as_series_list,
    series_dim,
    series_length,
)


class TestAsSeries:
    def test_coerces_list(self):
        out = as_series([1, 2, 3])
        assert out.dtype == np.float64
        assert out.shape == (3,)

    def test_accepts_2d(self):
        assert as_series(np.zeros((4, 2))).shape == (4, 2)

    def test_rejects_3d(self):
        with pytest.raises(DatasetError):
            as_series(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            as_series([])

    def test_rejects_nan(self):
        with pytest.raises(DatasetError):
            as_series([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(DatasetError):
            as_series([1.0, float("inf")])


class TestAsSeriesList:
    def test_matches_as_series_per_series(self):
        rng = np.random.default_rng(0)
        collection = [
            [1, 2, 3],
            np.zeros((4, 2)),
            rng.normal(size=7).astype(np.float32),
            rng.normal(size=130),
        ]
        out = as_series_list(collection)
        assert len(out) == len(collection)
        for got, values in zip(out, collection):
            want = as_series(values)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((2, 2, 2)), [], [1.0, float("nan")], [float("inf"), 1.0]],
        ids=["3d", "empty", "nan", "inf"],
    )
    def test_same_errors_as_as_series(self, bad):
        with pytest.raises(DatasetError) as single:
            as_series(bad)
        with pytest.raises(DatasetError) as many:
            as_series_list([np.ones(4), bad, np.ones(3)])
        assert str(many.value) == str(single.value)

    @pytest.mark.parametrize("position", [0, 4095, 4096, 9999])
    def test_non_finite_found_in_any_chunk(self, position):
        collection = [np.ones(128) for _ in range(10_000)]
        collection[position] = np.ones(128)
        collection[position][-1] = float("nan")
        with pytest.raises(DatasetError):
            as_series_list(collection)
        collection[position][-1] = 1.0
        assert len(as_series_list(collection)) == 10_000


class TestSeriesHelpers:
    def test_length(self):
        assert series_length(np.zeros(7)) == 7
        assert series_length(np.zeros((7, 3))) == 7

    def test_dim(self):
        assert series_dim(np.zeros(7)) == 1
        assert series_dim(np.zeros((7, 3))) == 3


def _labeled(n_per_class=4, n_classes=3, length=16, seed=0):
    rng = np.random.default_rng(seed)
    series = [rng.normal(size=length) for _ in range(n_per_class * n_classes)]
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return LabeledDataset(series=series, labels=labels, name="x")


class TestLabeledDataset:
    def test_len_and_iter(self):
        ds = _labeled()
        assert len(ds) == 12
        seen = [label for _, label in ds]
        assert len(seen) == 12

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DatasetError):
            LabeledDataset(series=[np.zeros(3)], labels=np.array([1, 2]))

    def test_n_classes(self):
        assert _labeled(n_classes=3).n_classes == 3

    def test_split_half_balanced(self):
        ds = _labeled(n_per_class=4, n_classes=3)
        a, b = ds.split_half(seed=1)
        assert len(a) == len(b) == 6
        for label in range(3):
            assert (a.labels == label).sum() == 2
            assert (b.labels == label).sum() == 2

    def test_split_half_odd_counts(self):
        ds = _labeled(n_per_class=3, n_classes=2)
        a, b = ds.split_half(seed=0)
        assert len(a) + len(b) == 6
        # the bigger half gets the extras
        assert len(a) == 2
        assert len(b) == 4

    def test_subset(self):
        ds = _labeled()
        sub = ds.subset([0, 2, 4])
        assert len(sub) == 3
        assert np.array_equal(sub.labels, ds.labels[[0, 2, 4]])


class TestClassificationDataset:
    def test_describe(self):
        ds = ClassificationDataset("n", _labeled(), _labeled(seed=1))
        text = ds.describe()
        assert "n:" in text and "classes=3" in text

    def test_length_property(self):
        ds = ClassificationDataset("n", _labeled(length=32), _labeled(length=32))
        assert ds.length == 32


class TestWorkload:
    def test_requires_database(self):
        with pytest.raises(DatasetError):
            Workload(database=[], queries=[np.zeros(3)])

    def test_requires_queries(self):
        with pytest.raises(DatasetError):
            Workload(database=[np.zeros(3)], queries=[])

    def test_length(self):
        wl = Workload(database=[np.zeros(9)], queries=[np.zeros(9)])
        assert wl.length == 9
