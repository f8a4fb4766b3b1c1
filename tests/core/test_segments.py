"""Segment lifecycle tests: seal/compact parity and O(buffer) flushes.

The heart of the segmented storage engine is a pair of equivalences:

- insert → flush → ``compact()`` is bit-identical to building the
  database from scratch over the same series (compaction re-derives the
  tight bound + padding and re-transforms everything, exactly like the
  constructor);
- a sealed segment answers queries bit-identically to the update buffer
  it was sealed from (it adopts the buffer's grid and sets verbatim).

Plus the cost contract: a flush performs O(buffer) transform work, not
O(database) — asserted through the ``sts3_transforms_total`` counter.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core.segment import Segment
from repro.obs import MetricsRegistry, get_registry, set_registry

METHODS = ["naive", "index", "pruning", "approximate"]


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(previous)


def _spiked(rng, length, spike):
    series = rng.normal(size=length)
    series[int(rng.integers(0, length))] = spike
    return series


def _workload(seed, n_base=30, n_extra=7, length=48):
    """Base series plus out-of-bound extras (each spike breaks the bound)."""
    rng = np.random.default_rng(seed)
    base = [rng.normal(size=length) for _ in range(n_base)]
    extras = [_spiked(rng, length, 30.0 + 10.0 * i) for i in range(n_extra)]
    queries = [rng.normal(size=length) for _ in range(4)] + [extras[0], base[3]]
    return base, extras, queries


def _answers(db, queries, method, k=5):
    return [
        [(n.index, n.similarity) for n in db.query(q, k=k, method=method).neighbors]
        for q in queries
    ]


class TestCompactMatchesScratch:
    """Satellite: insert→flush→compact ≡ from-scratch rebuild, all methods."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("method", METHODS)
    def test_query_parity(self, seed, method):
        base, extras, queries = _workload(seed)
        db = STS3Database(
            base, sigma=2, epsilon=0.4, normalize=False, buffer_capacity=3
        )
        for series in extras:
            db.insert(series)
        db.flush()
        assert len(db.catalog.segments) > 1
        db.compact()
        assert len(db.catalog.segments) == 1

        scratch = STS3Database(
            base + extras, sigma=2, epsilon=0.4, normalize=False, buffer_capacity=3
        )
        assert _answers(db, queries, method) == _answers(scratch, queries, method)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_query_batch_parity(self, seed):
        base, extras, queries = _workload(seed)
        db = STS3Database(
            base, sigma=2, epsilon=0.4, normalize=False, buffer_capacity=3,
        )
        for series in extras:
            db.insert(series)
        db.flush()
        db.compact()
        scratch = STS3Database(
            base + extras, sigma=2, epsilon=0.4, normalize=False, buffer_capacity=3
        )
        got = db.query_batch(queries, k=4, method="index")
        want = scratch.query_batch(queries, k=4, method="index")
        assert [
            [(n.index, n.similarity) for n in r.neighbors] for r in got
        ] == [[(n.index, n.similarity) for n in r.neighbors] for r in want]


class TestSealedMatchesBuffered:
    """A sealed segment answers exactly like the buffer it came from.

    This is the acceptance parity against the pre-refactor single-grid
    path: the buffered-query semantics (main grid + buffer grid,
    Section 5.3.2) are the seed behaviour, and sealing the buffer as a
    segment must not change a single bit of any answer.
    """

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods(self, method):
        base, extras, queries = _workload(3)
        kwargs = dict(sigma=2, epsilon=0.4, normalize=False, buffer_capacity=64)
        buffered = STS3Database(base, **kwargs)
        sealed = STS3Database(base, **kwargs)
        for series in extras:
            buffered.insert(series)
            sealed.insert(series)
        assert len(buffered.buffer) == len(extras)  # stays buffered
        sealed.flush()
        assert len(sealed.catalog.segments) == 2

        for k in (1, 3, 8):
            for query in queries:
                got = sealed.query(query, k=k, method=method).neighbors
                want = buffered.query(query, k=k, method=method).neighbors
                assert [(n.index, n.similarity) for n in got] == [
                    (n.index, n.similarity) for n in want
                ]

    def test_query_batch_matches_scalar_on_segments(self):
        base, extras, queries = _workload(4)
        db = STS3Database(
            base, sigma=2, epsilon=0.4, normalize=False, buffer_capacity=3
        )
        for series in extras:
            db.insert(series)
        batch = db.query_batch(queries, k=4, method="index")
        scalar = [db.query(q, k=4, method="index") for q in queries]
        assert [(r.indices(), list(r.similarities())) for r in batch] == [
            (r.indices(), list(r.similarities())) for r in scalar
        ]
        for got, want in zip(batch, scalar):
            assert got.stats == want.stats


class TestFlushCost:
    """Acceptance: flushing b buffered series does O(b) transform work."""

    def test_flush_transform_work_is_buffer_sized(self, fresh_registry):
        rng = np.random.default_rng(7)
        n, b = 400, 5
        base = [rng.normal(size=32) for _ in range(n)]
        db = STS3Database(
            base, sigma=2, epsilon=0.5, normalize=False, buffer_capacity=b + 1
        )
        transforms = fresh_registry.counter("sts3_transforms_total")
        assert transforms.value(context="build") == n

        for i in range(b):
            db.insert(_spiked(rng, 32, 40.0 + 10.0 * i))
        buffered_work = transforms.value(context="buffer")
        # Each add transforms once; a bound growth re-transforms the
        # (small) buffer contents — all O(b²) ≪ n in the worst case.
        assert b <= buffered_work <= b + b * (b - 1) / 2

        before_total = sum(
            transforms.value(context=c)
            for c in ("build", "buffer", "extend", "compact", "load")
        )
        db.flush()
        after_total = sum(
            transforms.value(context=c)
            for c in ("build", "buffer", "extend", "compact", "load")
        )
        # Sealing adopts the buffer's sets: zero transforms, in
        # particular no O(n) rebuild.
        assert after_total == before_total
        assert transforms.value(context="compact") == 0

        db.compact()
        assert transforms.value(context="compact") == n + b

    def test_load_transforms_each_stored_series_once(self, fresh_registry, tmp_path):
        """Eager load counts every stored series; a mapped one on first touch."""
        from repro.core import load_database, save_database

        rng = np.random.default_rng(9)
        n, b = 60, 3
        db = STS3Database(
            [rng.normal(size=32) for _ in range(n)],
            sigma=2, epsilon=0.5, normalize=False, buffer_capacity=b,
        )
        for i in range(b):
            db.insert(_spiked(rng, 32, 40.0 + 10.0 * i))  # the third one seals
        assert len(db.catalog.segments) == 2
        path = tmp_path / "db.sts3"
        save_database(db, path)
        transforms = fresh_registry.counter("sts3_transforms_total")
        load_database(path)
        assert transforms.value(context="load") == n + b
        mapped = load_database(path, mmap=True)
        assert transforms.value(context="load") == n + b
        mapped.query(rng.normal(size=32), k=3, method="naive")
        assert transforms.value(context="load") == 2 * (n + b)

    def test_direct_insert_transforms_once(self, fresh_registry):
        rng = np.random.default_rng(8)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(50)],
            sigma=2, epsilon=0.5, value_padding=1.0,
        )
        transforms = fresh_registry.counter("sts3_transforms_total")
        db.insert(0.5 * rng.normal(size=32))
        assert transforms.value(context="extend") == 1.0


class TestCatalogLifecycle:
    def test_generation_bumps_on_structural_changes(self):
        rng = np.random.default_rng(9)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(20)],
            sigma=2, epsilon=0.5, normalize=False, buffer_capacity=2,
        )
        g0 = db.catalog.generation
        db.insert(np.clip(rng.normal(size=32), -1, 1))  # direct extend
        assert db.catalog.generation > g0
        g1 = db.catalog.generation
        # Buffered: no structural change, but the generation still
        # advances (catalog.touch) so result-cache entries keyed on it
        # stop serving answers that predate the buffered series.  The
        # segment layout itself is untouched.
        offsets_before = db.catalog.offsets()
        db.insert(_spiked(rng, 32, 50.0))
        assert db.catalog.generation > g1
        assert db.catalog.offsets() == offsets_before
        g1 = db.catalog.generation
        db.insert(_spiked(rng, 32, 60.0))  # fills the buffer: seal
        assert db.catalog.generation > g1
        g2 = db.catalog.generation
        assert db.compact() >= 1
        assert db.catalog.generation > g2

    def test_compact_min_size_merges_consecutive_small_runs(self):
        rng = np.random.default_rng(10)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(40)],
            sigma=2, epsilon=0.5, normalize=False, buffer_capacity=2,
        )
        for i in range(6):  # three seals of two series each
            db.insert(_spiked(rng, 32, 40.0 + 10.0 * i))
        assert len(db.catalog.segments) == 4
        sizes_before = [len(s) for s in db.catalog.segments]
        merged = db.compact(min_size=10)
        # The base segment (40 series) is untouched; the three
        # two-series deltas merge into one six-series segment.
        assert merged == 2
        assert [len(s) for s in db.catalog.segments] == [40, 6]
        assert sum(len(s) for s in db.catalog.segments) == sum(sizes_before)
        assert db.verify_integrity() == []

    def test_offsets_and_describe(self):
        rng = np.random.default_rng(11)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(10)],
            sigma=2, epsilon=0.5, normalize=False, buffer_capacity=2,
        )
        for i in range(2):
            db.insert(_spiked(rng, 32, 40.0 + 10.0 * i))
        assert db.catalog.offsets() == [0, 10]
        rows = db.catalog.describe()
        assert [row["offset"] for row in rows] == [0, 10]
        assert [row["n_series"] for row in rows] == [10, 2]

    def test_segment_is_replaced_not_mutated_on_extend(self):
        rng = np.random.default_rng(12)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(10)],
            sigma=2, epsilon=0.5, value_padding=1.0,
        )
        segment = db.catalog.segments[0]
        searcher = segment.indexed_searcher()
        db.insert(0.5 * rng.normal(size=32))
        replacement = db.catalog.segments[0]
        assert replacement is not segment
        assert len(segment) == 10  # the old segment is untouched
        assert len(replacement) == 11
        assert replacement.indexed_searcher() is not searcher

    def test_segment_build_roundtrip(self):
        rng = np.random.default_rng(13)
        series = [rng.normal(size=24) for _ in range(6)]
        segment = Segment.build(0, series, sigma=2, epsilon=0.5)
        assert len(segment) == 6
        assert segment.verify_integrity() == []
        stats = segment.stats()
        assert stats["n_series"] == 6
        assert stats["median_length"] == 24
