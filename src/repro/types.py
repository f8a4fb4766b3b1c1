"""Shared container types used across the :mod:`repro` package.

The core algorithms operate directly on ``numpy`` arrays: a time series
is a float array of shape ``(n,)`` (one-dimensional, the paper's default
setting) or ``(n, d)`` (multi-dimensional, Section 5.1).  The classes
here are light wrappers used to move *collections* of series around —
labeled classification datasets and database/query workloads — without
inventing a heavyweight object model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exceptions import DatasetError

__all__ = [
    "LabeledDataset",
    "ClassificationDataset",
    "Workload",
    "as_series",
    "as_series_list",
    "series_length",
    "series_dim",
]


_NON_FINITE = "time series contains NaN or infinite values"


def _shape_checked(arr: np.ndarray) -> np.ndarray:
    if arr.ndim not in (1, 2):
        raise DatasetError(f"a time series must be 1-D or 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DatasetError("a time series must contain at least one point")
    return arr


def as_series(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce ``values`` into a float64 time-series array.

    Accepts any 1-D or 2-D sequence.  Raises :class:`DatasetError` for
    empty input, higher-rank arrays, or non-finite values, so malformed
    data fails loudly at the boundary instead of deep inside a search.
    """
    arr = _shape_checked(np.asarray(values, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise DatasetError(_NON_FINITE)
    return arr


#: points per finiteness pass in :func:`as_series_list`: each stacked
#: chunk and its mask stay a few MiB whatever the collection size.
_FINITE_CHUNK_POINTS = 4096 * 128


def as_series_list(
    collection: Iterable[Sequence[float] | np.ndarray],
) -> list[np.ndarray]:
    """:func:`as_series` over a whole collection, in one finiteness pass.

    Every series is coerced and shape-checked exactly as
    :func:`as_series` does it, with the same :class:`DatasetError`
    messages; the NaN/inf check then runs over the collection in
    stacked chunks instead of once per series, which is where the
    per-series form spent most of its time on large collections.
    """
    arrays = [
        _shape_checked(np.asarray(values, dtype=np.float64))
        for values in collection
    ]
    start = 0
    while start < len(arrays):
        stop, points = start, 0
        while stop < len(arrays) and points < _FINITE_CHUNK_POINTS:
            points += arrays[stop].size
            stop += 1
        chunk = np.concatenate([arr.ravel() for arr in arrays[start:stop]])
        if not np.isfinite(chunk).all():
            raise DatasetError(_NON_FINITE)
        start = stop
    return arrays


def series_length(series: np.ndarray) -> int:
    """Number of time points in a ``(n,)`` or ``(n, d)`` series."""
    return int(series.shape[0])


def series_dim(series: np.ndarray) -> int:
    """Number of value dimensions of a series (1 for a flat array)."""
    return 1 if series.ndim == 1 else int(series.shape[1])


@dataclass
class LabeledDataset:
    """A list of time series with one integer class label per series."""

    series: list[np.ndarray]
    labels: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.series) != len(self.labels):
            raise DatasetError(
                f"{len(self.series)} series but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[tuple[np.ndarray, int]]:
        return zip(self.series, self.labels.tolist())

    @property
    def n_classes(self) -> int:
        """Number of distinct labels present."""
        return int(np.unique(self.labels).size)

    def split_half(self, seed: int = 0) -> tuple["LabeledDataset", "LabeledDataset"]:
        """Split into two halves with per-class balance.

        Mirrors the paper's parameter-tuning protocol (Section 7.2.2):
        "the TRAIN dataset is divided into two parts ... the number of
        time series belonging to same class is equal in each part."
        """
        rng = np.random.default_rng(seed)
        first: list[int] = []
        second: list[int] = []
        for label in np.unique(self.labels):
            idx = np.flatnonzero(self.labels == label)
            rng.shuffle(idx)
            half = len(idx) // 2
            first.extend(idx[:half].tolist())
            second.extend(idx[half:].tolist())
        return self.subset(first), self.subset(second)

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        """New dataset containing only the series at ``indices``."""
        idx = list(indices)
        return LabeledDataset(
            series=[self.series[i] for i in idx],
            labels=self.labels[idx],
            name=self.name,
        )


@dataclass
class ClassificationDataset:
    """A named TRAIN/TEST pair in the UCR-archive style."""

    name: str
    train: LabeledDataset
    test: LabeledDataset

    @property
    def length(self) -> int:
        """Length of the series (UCR datasets are equal-length)."""
        return series_length(self.train.series[0])

    @property
    def n_classes(self) -> int:
        """Number of distinct labels in the training part."""
        return self.train.n_classes

    def describe(self) -> str:
        """One-line summary matching the paper's Table 8 columns."""
        return (
            f"{self.name}: train={len(self.train)} test={len(self.test)} "
            f"len={self.length} classes={self.n_classes}"
        )


@dataclass
class Workload:
    """A similarity-search workload: a database plus a batch of queries.

    Built by :mod:`repro.data.workloads` following the paper's protocol
    (Section 7): consecutive, z-normalized, equal-length slices of a
    long source stream.
    """

    database: list[np.ndarray]
    queries: list[np.ndarray]
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.database:
            raise DatasetError("a workload needs at least one database series")
        if not self.queries:
            raise DatasetError("a workload needs at least one query")

    @property
    def length(self) -> int:
        return series_length(self.database[0])
