"""Order statistics the benchmark reports (stdlib only, no numpy).

Kept dependency-free so ``run.py compare`` works on result files in a
directory that does not hold the program.
"""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = [
    "percentile",
    "median",
    "quartiles",
    "quiet_quartile",
    "relative_spread",
    "slice_median",
    "slice_rate",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Same definition as ``numpy.percentile(..., method="linear")``.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quiet_quartile(values: Sequence[float]) -> float:
    """The lower quartile of the repetitions of a long operation.

    For the operations a run repeats only some tens of times, each
    taking tens of milliseconds or more: a batch of 64, a checkpoint, a
    restart.  This sandbox's disturbances -- a busy virtual disk under
    an fsync, a neighbour on the memory bus -- only ever add time, come
    in stretches of seconds and cover a third to a half of a run's
    repetitions, so the median lands inside or outside a stretch from
    one run to the next.  Over 18 runs the inter-quartile spread of the
    median was 8-36 % for a checkpoint, 10-18 % for a restart and
    13-20 % for a batch; of the lower quartile 8-15 %, 11-13 % and
    8-11 %.  A slower program moves the undisturbed repetitions as much
    as the others.
    """
    return percentile(values, 25.0)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles (``statistics`` refuses it).
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _slices(values: Sequence, slices: int) -> list[Sequence]:
    slices = max(1, min(slices, len(values)))
    size = len(values) // slices
    return [values[i * size:(i + 1) * size] for i in range(slices)]


def slice_rate(
    durations: Sequence[float],
    counts: Sequence[int] | None = None,
    slices: int = 16,
) -> float:
    """Operations per second as the median rate over equal-length slices.

    ``durations`` are the back-to-back operation times of one
    closed-loop caller, in seconds, and ``counts[i]`` the operations of
    interest sample ``i`` completed (default one each; 0 for an
    operation of another kind sharing the loop).  One stall (a
    collection pause, a burst on the other core) lowers one slice's
    rate, not the reported one, which total over elapsed would not
    survive.
    """
    if not durations:
        raise ValueError("rate of no samples")
    if counts is None:
        counts = [1] * len(durations)
    return median([
        sum(c) / sum(d)
        for c, d in zip(_slices(counts, slices), _slices(durations, slices))
    ])


def slice_median(values: Sequence[float], slices: int) -> float:
    """The median over equal-length slices of each slice's median.

    Equal to the plain median when the samples are alike; when a
    disturbance slows a stretch of the run, the slices it covers move
    as a block and, being a minority, leave the reported value alone,
    where the pooled median would shift by their share.
    """
    if not values:
        raise ValueError("median of no samples")
    return median([median(chunk) for chunk in _slices(values, slices)])
