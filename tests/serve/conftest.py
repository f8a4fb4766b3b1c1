"""Shared fixtures of the serving tests.

Every test runs against a fresh metrics registry (server counters must
not leak between tests, and tests assert on exact counts) and most use
the same small ECG database, built once per module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import STS3Database
from repro.data import ecg_stream, make_workload
from repro.obs import NOOP, MetricsRegistry, set_registry, set_tracer

N_SERIES = 200
N_QUERIES = 12
LENGTH = 96


@pytest.fixture(autouse=True)
def _isolated_observability():
    previous_registry = set_registry(MetricsRegistry())
    previous_tracer = set_tracer(NOOP)
    try:
        yield
    finally:
        set_registry(previous_registry)
        set_tracer(previous_tracer)


@pytest.fixture(scope="module")
def workload():
    stream = ecg_stream((N_SERIES + N_QUERIES) * LENGTH, seed=7)
    return make_workload(stream, N_SERIES, N_QUERIES, LENGTH)


@pytest.fixture
def db(workload):
    return STS3Database(workload.database, sigma=3, epsilon=0.5)


@pytest.fixture
def queries(workload):
    return [np.asarray(q) for q in workload.queries]


def make_multiseg_db() -> tuple[STS3Database, np.ndarray]:
    """A three-segment database + query, for deadline-ladder scenarios.

    Mirrors the degraded-query fixture: a large bootstrap segment plus
    two sealed deltas, so the ladder has segments to skip.
    """
    from repro.core.planner import SMALL_SEGMENT

    length = 48
    rng = np.random.default_rng(21)
    base = [rng.normal(size=length) for _ in range(SMALL_SEGMENT + 16)]
    database = STS3Database(base, sigma=2, epsilon=0.5, buffer_capacity=4)
    for _ in range(4):  # longer => out-of-bound => buffered => sealed
        database.insert(rng.normal(size=length + 8))
    for _ in range(4):  # longer still => out of the new bound too
        database.insert(rng.normal(size=length + 32))
    assert len(database.catalog.segments) == 3
    query = np.random.default_rng(77).normal(size=length)
    return database, query

