"""Set representation of time series (Algorithms 1 and 6).

A set representation is a **sorted array of unique int64 cell IDs**.
Sorted arrays make the Jaccard intersection a linear merge (the paper's
"order list for the convenience of linear-time intersection") and let
numpy do the heavy lifting.

:func:`transform` is Algorithm 1 (all points assumed in-bound) and
:func:`transform_many` its bulk form for whole collections;
:func:`transform_query` is Algorithm 6, which handles query points
falling outside the database bound by giving them cell IDs from a
separate ID space offset by ``maxNumber`` — out-points can then only
match other out-points, never a database cell.

The module also houses :class:`CompressedSet`, the delta-encoded set
storage suggested by the paper's future work ("developing a compression
strategy for time series").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Bound, Grid, stacked_chunks

__all__ = ["transform", "transform_many", "transform_query", "CompressedSet"]


def transform(series: np.ndarray, grid: Grid) -> np.ndarray:
    """Algorithm 1: convert a series to its sorted unique cell-ID set.

    Every point is assigned a cell (points on/outside the bound edge
    are clamped to border cells); duplicate IDs collapse because the
    representation is a set.
    """
    ids = grid.cell_ids_per_point(series)
    return np.unique(ids)


def transform_many(series, grid: Grid) -> list[np.ndarray]:
    """Algorithm 1 over a collection: ``[transform(s, grid) for s in series]``.

    Same output byte for byte (sorted unique int64 arrays, in input
    order), but one numpy pass per stacked chunk of equal-shape series
    (:func:`repro.core.grid.stacked_chunks`) instead of one call chain
    per series: Equation 1 over the whole chunk, a sort along each row,
    and a mask keeping the entries that differ from their left
    neighbour.  Each returned set is a contiguous view into its chunk's
    kept IDs.
    """
    out: list[np.ndarray] = [None] * len(series)
    for positions, points in stacked_chunks(series):
        ids = grid.cell_ids(points)
        ids.sort(axis=1)
        keep = np.ones(ids.shape, dtype=bool)
        np.not_equal(ids[:, 1:], ids[:, :-1], out=keep[:, 1:])
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        kept = ids[keep]
        for p, start, end in zip(positions, [0] + ends, ends):
            out[p] = kept[start:end]
    return out


def transform_query(series: np.ndarray, grid: Grid) -> np.ndarray:
    """Algorithm 6: transform a query that may leave the database bound.

    In-bound points get ordinary cell IDs so they can match database
    cells.  Out-points are gridded against their *own* bound (with the
    same cell sizes) and shifted past ``maxNumber`` — the maximal cell
    ID of the database grid — so their IDs are disjoint from every
    database cell.  This preserves ``|Q|`` (the union term of Jaccard)
    without letting out-points create spurious matches.
    """
    mask = grid.bound.contains(series)
    if mask.all():
        return transform(series, grid)

    points = series if series.ndim > 1 else series[:, None]
    parts: list[np.ndarray] = []
    if mask.any():
        inside = grid.cell_ids_per_point(series)[mask]
        parts.append(inside)

    out_points = points[~mask]
    out_series = out_points if series.ndim > 1 else out_points[:, 0]
    out_bound = Bound.of_series(out_series)
    out_grid = Grid(out_bound, grid.col_width, grid.row_heights)
    outside = out_grid.cell_ids_per_point(out_series) + grid.n_cells
    parts.append(outside)
    return np.unique(np.concatenate(parts))


@dataclass
class CompressedSet:
    """Delta-encoded storage for a sorted cell-ID set.

    Sorted IDs are stored as a first value plus successive differences
    in the narrowest unsigned integer dtype that fits, typically
    shrinking memory by 4-8x for dense representations.  This is the
    compression extension flagged as future work in the paper's
    conclusion; an ablation bench measures the size/decode trade-off.
    """

    first: int
    deltas: np.ndarray
    length: int

    @staticmethod
    def encode(cell_set: np.ndarray) -> "CompressedSet":
        ids = np.asarray(cell_set, dtype=np.int64)
        if ids.size == 0:
            return CompressedSet(first=0, deltas=np.empty(0, dtype=np.uint8), length=0)
        deltas = np.diff(ids)
        if deltas.size and deltas.min() <= 0:
            raise ValueError("cell set must be strictly increasing")
        max_delta = int(deltas.max()) if deltas.size else 0
        for dtype in (np.uint8, np.uint16, np.uint32):
            if max_delta <= np.iinfo(dtype).max:
                packed = deltas.astype(dtype)
                break
        else:
            packed = deltas.astype(np.uint64)
        return CompressedSet(first=int(ids[0]), deltas=packed, length=int(ids.size))

    def decode(self) -> np.ndarray:
        """Recover the original sorted int64 cell-ID array."""
        if self.length == 0:
            return np.empty(0, dtype=np.int64)
        out = np.empty(self.length, dtype=np.int64)
        out[0] = self.first
        if self.length > 1:
            out[1:] = self.first + np.cumsum(self.deltas.astype(np.int64))
        return out

    @property
    def nbytes(self) -> int:
        """Approximate storage footprint of the encoded form."""
        return 8 + self.deltas.nbytes
