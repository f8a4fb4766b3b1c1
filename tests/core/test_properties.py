"""Hypothesis property tests for core STS3 invariants.

These complement the example-based tests with randomized checks of the
mathematical claims the algorithms rest on: bound admissibility, grid
determinism, coarse/fine consistency, and robustness guarantees.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import Bound, Grid, PruningSearcher, transform, transform_query
from repro.core.grid import CHUNK_POINTS
from repro.core.jaccard import jaccard
from repro.core.pruning import zone_histogram
from repro.core.setrep import CompressedSet, transform_many

series_strategy = arrays(
    np.float64,
    st.integers(min_value=4, max_value=80),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)

cell_params = st.tuples(
    st.integers(min_value=1, max_value=9),         # sigma
    st.floats(min_value=0.05, max_value=3.0),      # epsilon
)


def _array_of(n: int):
    return arrays(
        np.float64,
        n,
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )


#: two series of one shared random length.
series_pair = st.integers(min_value=4, max_value=60).flatmap(
    lambda n: st.tuples(_array_of(n), _array_of(n))
)


@given(series_strategy, cell_params)
def test_transform_deterministic(series, params):
    sigma, epsilon = params
    grid = Grid.from_cell_sizes(Bound.of_series(series), sigma, epsilon)
    a = transform(series, grid)
    b = transform(series, grid)
    assert np.array_equal(a, b)


@given(series_strategy, cell_params)
def test_transform_ids_in_range(series, params):
    sigma, epsilon = params
    grid = Grid.from_cell_sizes(Bound.of_series(series), sigma, epsilon)
    cell_set = transform(series, grid)
    assert len(cell_set) >= 1
    assert cell_set.min() >= 0
    assert cell_set.max() < grid.n_cells


@given(series_pair, cell_params, st.integers(1, 6))
def test_zone_bound_admissible(pair, params, scale):
    """Σ_i min(|S_i|, |Q_i|) >= |S ∩ Q| for any zone scale."""
    a, b = pair
    sigma, epsilon = params
    grid = Grid.from_cell_sizes(Bound.of_database([a, b]), sigma, epsilon)
    set_a, set_b = transform(a, grid), transform(b, grid)
    hist_a = zone_histogram(set_a, grid, scale)
    hist_b = zone_histogram(set_b, grid, scale)
    bound = np.minimum(hist_a, hist_b).sum()
    true_inter = np.intersect1d(set_a, set_b, assume_unique=True).size
    assert bound >= true_inter


@given(series_strategy, cell_params, st.integers(1, 6))
def test_zone_histogram_partitions_set(series, params, scale):
    sigma, epsilon = params
    grid = Grid.from_cell_sizes(Bound.of_series(series), sigma, epsilon)
    cell_set = transform(series, grid)
    hist = zone_histogram(cell_set, grid, scale)
    assert hist.sum() == len(cell_set)
    assert (hist >= 0).all()


@given(series_pair, cell_params)
def test_pruning_bound_dominates_similarity(pair, params):
    a, b = pair
    sigma, epsilon = params
    grid = Grid.from_cell_sizes(Bound.of_database([a, b]), sigma, epsilon)
    sets = [transform(a, grid)]
    searcher = PruningSearcher(sets, grid, scale=3)
    query_set = transform(b, grid)
    (bound,) = searcher.upper_bounds(query_set)
    assert jaccard(sets[0], query_set) <= bound + 1e-12


@given(series_strategy)
def test_transform_query_set_size_bounded(series):
    """|Q'| never exceeds the point count, even with out-points."""
    half = series[: len(series) // 2]
    assume(len(half) >= 2)
    grid = Grid.from_cell_sizes(Bound.of_series(half), 2, 0.5)
    query_set = transform_query(series, grid)
    assert 1 <= len(query_set) <= len(series)


@given(series_strategy)
def test_out_point_ids_disjoint_from_grid(series):
    half = series[: len(series) // 2]
    assume(len(half) >= 2)
    grid = Grid.from_cell_sizes(Bound.of_series(half), 2, 0.5)
    query_set = transform_query(series, grid)
    in_bound_ids = query_set[query_set < grid.n_cells]
    out_ids = query_set[query_set >= grid.n_cells]
    assert len(np.intersect1d(in_bound_ids, out_ids)) == 0


@given(
    st.lists(st.integers(min_value=0, max_value=10**7), min_size=0, max_size=200)
)
def test_compressed_set_roundtrip(values):
    ids = np.unique(np.asarray(values, dtype=np.int64))
    assert np.array_equal(CompressedSet.encode(ids).decode(), ids)


@given(series_strategy, st.integers(2, 6))
def test_coarse_sets_smaller_than_fine(series, scale):
    """A coarser grid can only merge cells, never split them."""
    bound = Bound.of_series(series)
    fine = Grid.from_cell_sizes(bound, 1, 0.05)
    coarse = Grid.from_resolution(bound, scale)
    fine_set = transform(series, fine)
    coarse_set = transform(series, coarse)
    assert len(coarse_set) <= max(len(fine_set), scale * scale)
    assert len(coarse_set) <= scale * scale


@given(series_strategy, cell_params)
def test_jaccard_of_shifted_window_reasonable(series, params):
    """Sanity: similarity of a series with itself is 1 under any grid."""
    sigma, epsilon = params
    grid = Grid.from_cell_sizes(Bound.of_series(series), sigma, epsilon)
    cell_set = transform(series, grid)
    assert jaccard(cell_set, cell_set) == 1.0


# -- bulk Algorithm 1 (transform_many) -------------------------------------

#: the bound every bulk-transform example is gridded under; values are
#: drawn on, inside and just past its edges so clamping is exercised.
_EDGE_BOUND = Bound(0.0, 20.0, (-2.0, -1.0), (2.0, 3.0))


def _edge_values(lo: float, hi: float):
    return st.one_of(
        st.sampled_from(
            [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 0.0, -0.0]
        ),
        st.floats(min_value=lo - 1.0, max_value=hi + 1.0, allow_nan=False),
    )


def _edge_series(draw, length: int, n_dims: int) -> np.ndarray:
    """A 1-D (``n_dims == 0``) or ``(length, n_dims)`` series near the bound edges."""
    columns = [
        draw(arrays(np.float64, length, elements=_edge_values(
            _EDGE_BOUND.x_min[d], _EDGE_BOUND.x_max[d]
        )))
        for d in range(max(n_dims, 1))
    ]
    return columns[0] if n_dims == 0 else np.stack(columns, axis=1)


def _edge_grid(n_dims: int, sigma: int, epsilons: tuple[float, float]) -> Grid:
    dims = max(n_dims, 1)
    bound = Bound(
        _EDGE_BOUND.t_min, _EDGE_BOUND.t_max,
        _EDGE_BOUND.x_min[:dims], _EDGE_BOUND.x_max[:dims],
    )
    return Grid.from_axis_cell_sizes(bound, sigma, epsilons[:dims])


def _assert_same_sets(bulk: list, loop: list) -> None:
    assert len(bulk) == len(loop)
    for got, want in zip(bulk, loop):
        assert got.dtype == np.int64
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=60)
@given(
    st.data(),
    st.sampled_from([0, 1, 2]),                          # 0 = 1-D series
    st.integers(min_value=1, max_value=9),               # sigma
    st.tuples(
        st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=0.05, max_value=3.0)
    ),
)
def test_transform_many_matches_per_series_loop(data, n_dims, sigma, epsilons):
    """Bulk Algorithm 1 equals the per-series loop byte for byte.

    Mixed lengths (some longer than the bound's time span, so columns
    clamp too) and mixed 1-D / ``(n, 1)`` shapes share one call; 1-D
    and ``(n, d)`` series; per-axis (tuple) cell heights.
    """
    lengths = data.draw(st.lists(st.integers(1, 30), min_size=0, max_size=12))
    series = [_edge_series(data.draw, n, n_dims) for n in lengths]
    if n_dims == 1:  # 1-D and (n, 1) series side by side in one call
        series = [s.ravel() if data.draw(st.booleans()) else s for s in series]
    grid = _edge_grid(n_dims, sigma, epsilons)
    _assert_same_sets(transform_many(series, grid), [transform(s, grid) for s in series])


@pytest.mark.parametrize("n_dims", [0, 2])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_transform_many_chunk_boundaries(n_dims, offset):
    """Sizes 0, 1 and one chunk ±1 (the chunk is ``CHUNK_POINTS`` points)."""
    length = 512
    rows = CHUNK_POINTS // (length * max(n_dims, 1))
    size = 0 if offset is None else rows + offset
    rng = np.random.default_rng(rows + size)
    shape = (length,) if n_dims == 0 else (length, n_dims)
    series = [rng.normal(scale=2.0, size=shape) for _ in range(size)]
    grid = _edge_grid(n_dims, 3, (0.3, 0.7))
    _assert_same_sets(transform_many(series, grid), [transform(s, grid) for s in series])
    _assert_same_sets(transform_many(series[:1], grid), [transform(s, grid) for s in series[:1]])


def _per_series_bound(database, value_padding=0.0):
    """``Bound.of_database`` as a loop over series (the reference form)."""
    points = [s[:, None] if s.ndim == 1 else s for s in database]
    t_max = max(p.shape[0] for p in points) - 1
    x_min = np.min([p.min(axis=0) for p in points], axis=0) - value_padding
    x_max = np.max([p.max(axis=0) for p in points], axis=0) + value_padding
    return Bound(0.0, float(t_max), tuple(x_min.tolist()), tuple(x_max.tolist()))


@settings(deadline=None)
@given(
    st.data(),
    st.sampled_from([0, 1, 2]),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_bound_of_database_matches_per_series_form(data, n_dims, padding):
    """The stacked bound is bit-identical to the per-series reduction."""
    lengths = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=10))
    database = [_edge_series(data.draw, n, n_dims) for n in lengths]
    got = Bound.of_database(database, value_padding=padding)
    want = _per_series_bound(database, value_padding=padding)
    assert float(got.t_max).hex() == float(want.t_max).hex()
    assert [v.hex() for v in got.x_min] == [v.hex() for v in want.x_min]
    assert [v.hex() for v in got.x_max] == [v.hex() for v in want.x_max]
