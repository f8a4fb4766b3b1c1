"""Grid division of the time-value plane (paper Section 3.2, Section 5.1).

A :class:`Bound` is the minimum bounding rectangle of a series database
(Definition 2); a :class:`Grid` divides that bound into cells and
assigns every point of a series to a cell ID (Definition 3, Equation 1).

Parameter-naming note (see DESIGN.md §2): the paper's prose and formulas
disagree about which of σ/ε lies on which axis; we follow the
*experimental* usage, which every reported number depends on:

- ``sigma`` — cell width along the **time** axis, in samples.
- ``epsilon`` — cell height along the **value** axis, in value units.

Cell IDs are 0-based here (the paper uses 1-based); Equation 1 becomes
``id = row * n_columns + column``.  For a ``d``-dimensional series
(Section 5.1) the value axes are digitized independently and the ID is
the mixed-radix combination of the time column and all value rows.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import GridError, ParameterError

__all__ = ["Bound", "Grid", "CHUNK_POINTS", "stacked_chunks"]

#: Points per stacked chunk in the many-series passes
#: (:meth:`Bound.of_database`, :func:`repro.core.setrep.transform_many`):
#: 4 096 series of length 128, so each float64 or int64 temporary of a
#: chunk is 4 MiB whatever the collection size.
CHUNK_POINTS = 4096 * 128


def _as_points(series: np.ndarray) -> np.ndarray:
    """View a ``(n,)`` or ``(n, d)`` series as an ``(n, d)`` value array."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim == 2:
        return arr
    raise GridError(f"a time series must be 1-D or 2-D, got shape {arr.shape}")


def stacked_chunks(
    series: Sequence[np.ndarray],
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Group ``series`` by shape and stack each group in bounded chunks.

    Yields ``(positions, points)``: ``points`` is a float64 array of
    shape ``(len(positions), n, d)`` holding ``series[p]`` for each
    ``p`` in ``positions``, as :func:`_as_points` would view it.  A
    chunk holds at most :data:`CHUNK_POINTS` points (and at least one
    series), so a pass over a large collection never stacks it whole.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for position, item in enumerate(series):
        groups.setdefault(np.shape(item), []).append(position)
    for shape, positions in groups.items():
        if len(shape) not in (1, 2):
            raise GridError(f"a time series must be 1-D or 2-D, got shape {shape}")
        n, d = shape[0], shape[1] if len(shape) == 2 else 1
        rows = max(1, CHUNK_POINTS // max(1, n * d))
        for start in range(0, len(positions), rows):
            chunk = positions[start : start + rows]
            flat = np.concatenate([series[p] for p in chunk], dtype=np.float64)
            yield chunk, flat.reshape(len(chunk), n, d)


@dataclass(frozen=True)
class Bound:
    """Minimum bounding rectangle of a series database (Definition 2).

    The time axis runs over sample indices ``t_min .. t_max``; the value
    axes over ``x_min[d] .. x_max[d]`` per dimension.
    """

    t_min: float
    t_max: float
    x_min: tuple[float, ...]
    x_max: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.t_max < self.t_min:
            raise GridError(f"empty time bound: [{self.t_min}, {self.t_max}]")
        if len(self.x_min) != len(self.x_max):
            raise GridError("x_min and x_max must have equal dimensionality")
        for lo, hi in zip(self.x_min, self.x_max):
            if hi < lo:
                raise GridError(f"empty value bound: [{lo}, {hi}]")

    @property
    def n_dims(self) -> int:
        """Number of value dimensions."""
        return len(self.x_min)

    @staticmethod
    def of_database(database: list[np.ndarray], value_padding: float = 0.0) -> "Bound":
        """Scan all points of ``database`` for the bounding rectangle.

        ``value_padding`` widens the value range on both sides; the
        paper recommends "a large bound" (Section 5.3.2) so that
        out-of-bound series stay rare under updates.
        """
        if not database:
            raise GridError("cannot bound an empty database")
        if value_padding < 0:
            raise ParameterError("value_padding must be non-negative")
        # Per-series extremes scattered back into input order, then one
        # reduction across series: the same reductions in the same order
        # as a per-series loop, so the bound is bit-identical to it.
        mins = maxs = None
        t_max = 0
        for positions, points in stacked_chunks(database):
            if mins is None:
                mins = np.empty((len(database), points.shape[2]))
                maxs = np.empty_like(mins)
            elif points.shape[2] != mins.shape[1]:
                raise GridError("all series must share the same dimensionality")
            mins[positions] = points.min(axis=1)
            maxs[positions] = points.max(axis=1)
            t_max = max(t_max, points.shape[1] - 1)
        x_min = mins.min(axis=0) - value_padding
        x_max = maxs.max(axis=0) + value_padding
        return Bound(0.0, float(t_max), tuple(x_min.tolist()), tuple(x_max.tolist()))

    @staticmethod
    def of_series(series: np.ndarray) -> "Bound":
        """Bound of a single series (used for out-point handling)."""
        return Bound.of_database([series])

    def contains(self, series: np.ndarray) -> np.ndarray:
        """Boolean mask: which points of ``series`` lie inside the bound.

        Time stamps are the sample indices; a point is inside when its
        index is within ``[t_min, t_max]`` and every value dimension is
        within its range.
        """
        points = _as_points(series)
        if points.shape[1] != self.n_dims:
            raise GridError(
                f"series has {points.shape[1]} dims, bound has {self.n_dims}"
            )
        t = np.arange(points.shape[0], dtype=np.float64)
        mask = (t >= self.t_min) & (t <= self.t_max)
        lo = np.asarray(self.x_min)
        hi = np.asarray(self.x_max)
        mask &= np.all((points >= lo) & (points <= hi), axis=1)
        return mask

    def covers(self, other: "Bound") -> bool:
        """True when ``other`` lies entirely inside this bound."""
        if other.n_dims != self.n_dims:
            return False
        return (
            self.t_min <= other.t_min
            and self.t_max >= other.t_max
            and all(a <= b for a, b in zip(self.x_min, other.x_min))
            and all(a >= b for a, b in zip(self.x_max, other.x_max))
        )

    def union(self, other: "Bound") -> "Bound":
        """The smallest bound covering both ``self`` and ``other``."""
        if other.n_dims != self.n_dims:
            raise GridError(
                f"cannot union a {self.n_dims}-dim bound with {other.n_dims} dims"
            )
        return Bound(
            min(self.t_min, other.t_min),
            max(self.t_max, other.t_max),
            tuple(min(a, b) for a, b in zip(self.x_min, other.x_min)),
            tuple(max(a, b) for a, b in zip(self.x_max, other.x_max)),
        )


class Grid:
    """Division of a :class:`Bound` into cells with integer IDs.

    Construct either from cell sizes (:meth:`from_cell_sizes`, the
    paper's σ/ε parameterization) or from a target resolution
    (:meth:`from_resolution`, used by the approximate algorithm's
    ``scale × scale`` coarse grids).  Cells are ``col_width`` samples
    wide and ``row_heights[d]`` tall; when the bound's span is not an
    exact multiple of the cell size the final cell is partial, exactly
    as in the paper's integer division (Algorithm 1, line 2).
    """

    def __init__(self, bound: Bound, col_width: float, row_heights: tuple[float, ...]):
        if col_width <= 0:
            raise ParameterError(f"col_width must be positive, got {col_width}")
        if not row_heights or any(h <= 0 for h in row_heights):
            raise ParameterError(f"row heights must be positive, got {row_heights}")
        if len(row_heights) != bound.n_dims:
            raise GridError(
                f"{len(row_heights)} row heights for a {bound.n_dims}-dim bound"
            )
        self.bound = bound
        self.col_width = float(col_width)
        self.row_heights = tuple(float(h) for h in row_heights)
        self.n_columns = int(np.floor((bound.t_max - bound.t_min) / col_width)) + 1
        self.n_rows = tuple(
            int(np.floor((hi - lo) / h)) + 1
            for lo, hi, h in zip(bound.x_min, bound.x_max, self.row_heights)
        )
        self._x_lo = np.asarray(bound.x_min, dtype=np.float64)
        self._heights = np.asarray(self.row_heights, dtype=np.float64)
        self._rows_arr = np.asarray(self.n_rows, dtype=np.int64)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_cell_sizes(bound: Bound, sigma: float, epsilon: float) -> "Grid":
        """Grid with cells ``sigma`` samples wide and ``epsilon`` tall.

        This is Algorithm 1's parameterization.  The same ``epsilon``
        applies to every value dimension (the paper's
        ``α_x = α_y = α_xy`` choice for multi-dimensional series; see
        Section 5.1's overfitting discussion for why one shared value
        parameter is the default).
        """
        if sigma <= 0:
            raise ParameterError(f"sigma must be positive, got {sigma}")
        if epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {epsilon}")
        return Grid(bound, sigma, (epsilon,) * bound.n_dims)

    @staticmethod
    def from_axis_cell_sizes(
        bound: Bound, sigma: float, epsilons: tuple[float, ...]
    ) -> "Grid":
        """Grid with a separate cell height per value dimension.

        Section 5.1 discusses trading one shared value parameter
        (``α_x = α_y``) against per-axis parameters: separate heights
        can help when the axes have different data/noise distributions,
        at the cost of a larger tuning space and overfitting risk.
        """
        if sigma <= 0:
            raise ParameterError(f"sigma must be positive, got {sigma}")
        if len(epsilons) != bound.n_dims:
            raise ParameterError(
                f"{len(epsilons)} epsilons for a {bound.n_dims}-dim bound"
            )
        if any(e <= 0 for e in epsilons):
            raise ParameterError(f"epsilons must be positive, got {epsilons}")
        return Grid(bound, sigma, tuple(float(e) for e in epsilons))

    @staticmethod
    def from_resolution(bound: Bound, scale: int) -> "Grid":
        """Grid of ``scale`` columns × ``scale`` rows per value dim.

        Used for the approximate algorithm's coarse representations
        (Section 4.3).  Cell sizes are the bound spans divided by
        ``scale`` (a degenerate zero span collapses to one row/column).
        """
        if scale < 1:
            raise ParameterError(f"scale must be >= 1, got {scale}")
        t_span = bound.t_max - bound.t_min
        # A hair over span/scale so floor(span / width) + 1 == scale.
        col_width = t_span / scale * (1 + 1e-12) if t_span > 0 else 1.0
        heights = tuple(
            max((hi - lo) / scale * (1 + 1e-12), np.finfo(float).tiny)
            if hi > lo
            else 1.0
            for lo, hi in zip(bound.x_min, bound.x_max)
        )
        grid = Grid(bound, max(col_width, np.finfo(float).tiny), heights)
        # Subnormal spans defeat the fudge factor's rounding; clamp the
        # derived counts so a scale-s grid never exceeds s cells per axis.
        grid.n_columns = min(grid.n_columns, scale)
        grid.n_rows = tuple(min(r, scale) for r in grid.n_rows)
        grid._rows_arr = np.asarray(grid.n_rows, dtype=np.int64)
        return grid

    # -- geometry -------------------------------------------------------

    @property
    def n_dims(self) -> int:
        """Number of value dimensions the grid divides."""
        return self.bound.n_dims

    @property
    def n_cells(self) -> int:
        """Total number of cells (``maxNumber`` in Algorithm 6)."""
        total = self.n_columns
        for r in self.n_rows:
            total *= r
        return total

    def columns_of(self, series: np.ndarray) -> np.ndarray:
        """Time-axis column index of every point, clamped to the grid."""
        return self._columns(_as_points(series).shape[0])

    def _columns(self, n: int) -> np.ndarray:
        t = np.arange(n, dtype=np.float64)
        cols = np.floor((t - self.bound.t_min) / self.col_width).astype(np.int64)
        return np.clip(cols, 0, self.n_columns - 1)

    def rows_of(self, series: np.ndarray) -> np.ndarray:
        """Value-axis row index per point and dimension, shape ``(n, d)``."""
        return self._rows(_as_points(series))

    def _rows(self, points: np.ndarray) -> np.ndarray:
        if points.shape[-1] != self.n_dims:
            raise GridError(
                f"series has {points.shape[-1]} dims, grid has {self.n_dims}"
            )
        rows = np.floor((points - self._x_lo) / self._heights).astype(np.int64)
        return np.clip(rows, 0, self._rows_arr - 1)

    def cell_ids_per_point(self, series: np.ndarray) -> np.ndarray:
        """Cell ID of each point (Equation 1, 0-based, mixed radix).

        For one value dimension: ``id = row * n_columns + column``.
        Points outside the bound are clamped onto the border cells;
        callers with genuinely out-of-bound query points should use
        :func:`repro.core.setrep.transform_query` (Algorithm 6) instead.
        """
        return self.cell_ids(_as_points(series))

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        """Equation 1 over a ``(..., n, d)`` point array → ``(..., n)`` IDs.

        Leading axes are a batch: a ``(b, n, d)`` stack of equal-length
        series gets the IDs each series would get on its own, because
        every step is elementwise (the time column depends only on the
        sample index and broadcasts over the batch).
        """
        rows = self._rows(points)
        ids = rows[..., -1]
        for d in range(self.n_dims - 2, -1, -1):
            ids = ids * self.n_rows[d] + rows[..., d]
        return ids * self.n_columns + self._columns(points.shape[-2])

    def decode_cell(self, cell_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Invert :meth:`cell_ids_per_point`: IDs → (columns, rows).

        Returns ``(columns, rows)`` with rows of shape ``(n, d)``.
        """
        ids = np.asarray(cell_ids, dtype=np.int64)
        columns = ids % self.n_columns
        rest = ids // self.n_columns
        rows = np.empty((len(ids), self.n_dims), dtype=np.int64)
        for d in range(self.n_dims):
            rows[:, d] = rest % self.n_rows[d]
            rest = rest // self.n_rows[d]
        return columns, rows

    def zones_of_cells(self, cell_ids: np.ndarray, scale: int) -> np.ndarray:
        """Map cell IDs to zone IDs for a ``scale × scale`` zone grid.

        Zones partition the plane for the pruning algorithm
        (Section 4.2).  Any partition of cells into zones yields an
        admissible intersection upper bound; we use the natural one
        that blocks columns into ``scale`` groups and (combined) rows
        into ``scale`` groups, giving ``scale²`` zones as in the paper.
        """
        if scale < 1:
            raise ParameterError(f"scale must be >= 1, got {scale}")
        columns, rows = self.decode_cell(cell_ids)
        zone_col = columns * scale // self.n_columns
        combined = np.zeros(len(columns), dtype=np.int64)
        total_rows = 1
        for d in range(self.n_dims - 1, -1, -1):
            combined = combined * self.n_rows[d] + rows[:, d]
            total_rows *= self.n_rows[d]
        zone_row = combined * scale // total_rows
        return zone_row * scale + zone_col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Grid(n_columns={self.n_columns}, n_rows={self.n_rows}, "
            f"col_width={self.col_width:g}, row_heights={self.row_heights})"
        )
