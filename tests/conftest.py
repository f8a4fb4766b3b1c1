"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from zlib import crc32

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import STS3Database
from repro.core.persistence import _END_MAGIC, _TRAILER
from repro.data import ecg_stream, make_workload
from repro.types import Workload

settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def ticking_clock(step: float):
    """A fake monotonic clock advancing ``step`` seconds per call.

    Call ``i`` returns ``i * step`` — the values ``np.arange(0, stop,
    step)`` holds, without materialising them (at ``step=0.0001`` the
    array the previous copies built was 7.5 GiB).
    """
    ticks = itertools.count()
    return lambda: next(ticks) * step


def answer_hex(result) -> list[tuple[int, str]]:
    """A result's neighbours as ``(index, similarity.hex())`` — bit-exact."""
    return [(n.index, float(n.similarity).hex()) for n in result.neighbors]


def rewrite_manifest(path, mutate) -> None:
    """Apply ``mutate(manifest)`` to a saved archive's manifest in place.

    The edited manifest replaces the old one and the trailer is rewritten
    with its new length and CRC32, so the loader sees a well-formed
    archive that carries exactly the edited fields.
    """
    path = Path(path)
    raw = path.read_bytes()
    offset, length, _, _ = _TRAILER.unpack_from(raw, len(raw) - _TRAILER.size)
    manifest = json.loads(raw[offset : offset + length])
    mutate(manifest)
    blob = json.dumps(manifest).encode()
    trailer = _TRAILER.pack(offset, len(blob), crc32(blob), _END_MAGIC)
    path.write_bytes(raw[:offset] + blob + trailer)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_workload() -> Workload:
    """120 ECG windows of length 96 plus 8 queries."""
    stream = ecg_stream(130 * 96, seed=7)
    return make_workload(stream, n_series=120, n_queries=8, length=96)


@pytest.fixture(scope="session")
def small_db(small_workload: Workload) -> STS3Database:
    return STS3Database(small_workload.database, sigma=3, epsilon=0.4)
