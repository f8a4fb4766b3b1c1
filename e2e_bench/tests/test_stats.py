"""Percentile, quartile and rate arithmetic."""

import statistics

import numpy as np
import pytest

from harness.stats import (
    median,
    percentile,
    quartiles,
    quiet_quartile,
    relative_spread,
    slice_median,
    slice_rate,
)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(7)
    values = rng.exponential(size=257).tolist()
    for q in (0, 1, 25, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_percentile_small_and_invalid():
    assert percentile([3.0], 99) == 3.0
    assert median([1.0, 2.0]) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_are_the_statistics_module_ones():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([4.2]) == (4.2, 4.2, 4.2)


def test_relative_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert relative_spread([0.0, 0.0, 0.0]) == 0.0


def test_slice_rate_survives_one_stall():
    steady = [0.001] * 160
    stalled = list(steady)
    stalled[40] = 0.5  # one 500 ms pause
    assert slice_rate(steady) == pytest.approx(1000.0)
    assert slice_rate(stalled) == pytest.approx(1000.0)
    assert len(stalled) / sum(stalled) < 250.0  # what total/elapsed would say


def test_slice_rate_counts_only_the_operations_asked_for():
    # 4 inserts of 1 ms then 1 query of 6 ms, repeated: 100 queries/s, 400 inserts/s
    durations = ([0.001] * 4 + [0.006]) * 32
    kinds = (["insert"] * 4 + ["query"]) * 32
    queries = slice_rate(durations, [1 if k == "query" else 0 for k in kinds])
    inserts = slice_rate(durations, [1 if k == "insert" else 0 for k in kinds])
    assert queries == pytest.approx(100.0)
    assert inserts == pytest.approx(400.0)


def test_slice_median_ignores_a_slow_stretch_the_pooled_median_follows():
    # 8 rounds of 100 samples at 2 ms; a disturbance slows rounds 3-5 to 3 ms
    values = [0.002] * 800
    for i in range(200, 500):
        values[i] = 0.003
    shifted = sorted(values)[int(0.5 * len(values))]
    assert slice_median(values, 8) == pytest.approx(0.002)
    assert slice_median([0.002] * 800, 8) == pytest.approx(median([0.002] * 800))
    assert shifted == pytest.approx(0.002)  # pooled median holds at 37 % ...
    for i in range(500, 620):
        values[i] = 0.003                   # ... and gives way past 50 %
    assert median(values) == pytest.approx(0.003)
    assert slice_median(values, 8) == pytest.approx(0.0025)


def test_quiet_quartile_holds_while_disturbed_repetitions_come_and_go():
    # 39 checkpoints of 90 ms; the disk makes some of them wait
    quiet = [0.090 + 0.0001 * i for i in range(39)]
    for disturbed in (0, 13, 19, 26):  # none, a third, half, two thirds
        values = [v * 4 if i < disturbed else v for i, v in enumerate(quiet)]
        assert quiet_quartile(values) == pytest.approx(0.092, rel=0.03), disturbed
    assert median(values) > 0.3  # where the median has long given way
    assert quiet_quartile([0.5]) == 0.5
