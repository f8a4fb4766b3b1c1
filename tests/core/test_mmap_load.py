"""Zero-copy mapped archive loads (DESIGN.md §13).

``load_database(path, mmap=True)`` opens a v4 archive by parsing the
manifest only: every segment becomes a lazy shell over mapped payload
bytes, materialized (and CRC-verified) on first touch.  These tests
pin the contract:

- mapped answers are bit-identical to eager ones, across methods;
- segments stay unmaterialized until a query touches them, and
  ``memory_stats`` reports mapped-vs-resident honestly;
- structural damage (bad footer, truncation) quarantines at open,
  exactly like the eager loader;
- payload corruption the open-time check cannot see raises
  :class:`DatasetError` on first touch instead of returning garbage;
- pre-v4 archives fall back to the eager loader.
"""

import struct

import numpy as np
import pytest

from repro import STS3Database
from repro.core import load_database, save_database
from repro.core.persistence import _read_manifest
from repro.exceptions import DatasetError

LENGTH = 32
METHODS = ["naive", "index", "pruning", "approximate", "minhash"]


def build_db(seed=13, n_series=50, segments=3):
    rng = np.random.default_rng(seed)
    base = [rng.normal(size=LENGTH) for _ in range(n_series)]
    db = STS3Database(base, sigma=2, epsilon=0.5, normalize=False,
                      buffer_capacity=4)
    spike = 60.0
    for _ in range(segments - 1):
        for _ in range(4):
            series = rng.normal(size=LENGTH)
            series[int(rng.integers(0, LENGTH))] = spike
            spike += 5.0
            db.insert(series)
    return db, rng


@pytest.fixture
def archive(tmp_path):
    db, rng = build_db()
    path = tmp_path / "db.sts3"
    save_database(db, path, pack_bitsets=True)
    return path, db, rng


def fingerprint_of(result):
    return [(n.index, n.similarity) for n in result.neighbors]


def payload_coords(path, index=0):
    """(offset, length) of one segment payload, straight off the manifest."""
    manifest = _read_manifest(path, path.read_bytes())
    payload = manifest["segments"][index]["payload"]
    return int(payload["offset"]), int(payload["length"])


class TestMappedEquivalence:
    def test_answers_bit_identical_to_eager(self, archive):
        path, db, rng = archive
        eager = load_database(path)
        mapped = load_database(path, mmap=True)
        queries = [rng.normal(size=LENGTH) for _ in range(4)]
        for method in METHODS:
            for query in queries:
                want = fingerprint_of(eager.query(query, k=5, method=method))
                got = fingerprint_of(mapped.query(query, k=5, method=method))
                assert got == want, method

    def test_catalog_shape_matches(self, archive):
        path, db, _ = archive
        mapped = load_database(path, mmap=True)
        assert len(mapped.catalog.segments) == len(db.catalog.segments)
        assert [len(s) for s in mapped.catalog.segments] == \
            [len(s) for s in db.catalog.segments]

    def test_loader_knobs_apply(self, archive):
        path, _, _ = archive
        mapped = load_database(path, mmap=True, cache_bytes=1 << 16)
        assert mapped.result_cache is not None
        assert mapped.result_cache.capacity_bytes == 1 << 16


class TestLaziness:
    def test_segments_start_lazy_and_sized(self, archive):
        path, db, _ = archive
        mapped = load_database(path, mmap=True)
        for segment, original in zip(mapped.catalog.segments,
                                     db.catalog.segments):
            assert segment.is_lazy
            assert len(segment) == len(original)  # size without touching
        for segment in mapped.catalog.segments:
            assert segment.is_lazy  # __len__ must not materialize

    def test_resolving_auto_maps_nothing(self, archive):
        path, _, _ = archive
        mapped = load_database(path, mmap=True)
        assert mapped.planner.resolve_auto() == "index"
        assert all(s.is_lazy for s in mapped.catalog.segments)

    def test_memory_stats_report_mapped_bytes(self, archive):
        path, _, rng = archive
        mapped = load_database(path, mmap=True)
        stats = mapped.catalog.segments[0].memory_stats()
        assert stats["mapped_payload_bytes"] > 0
        mapped.query(rng.normal(size=LENGTH), k=3, method="naive")
        touched = [s for s in mapped.catalog.segments if not s.is_lazy]
        assert touched  # the query materialized at least one segment
        assert touched[0].memory_stats()["mapped_payload_bytes"] == 0


class TestDamage:
    def test_bad_footer_quarantines_at_open(self, archive):
        path, _, rng = archive
        offset, length = payload_coords(path, index=1)
        raw = bytearray(path.read_bytes())
        # Stamp a wrong CRC footer: visible without reading the blob.
        struct.pack_into("<I", raw, offset + length, 0xDEADBEEF)
        path.write_bytes(bytes(raw))

        mapped = load_database(path, mmap=True)
        assert len(mapped.catalog.quarantined) == 1
        assert mapped.catalog.quarantined[0].reason == "checksum mismatch"
        result = mapped.query(rng.normal(size=LENGTH), k=3, method="index")
        assert result.complete is False  # quarantine degrades the answer

    def test_payload_corruption_raises_on_first_touch(self, archive):
        path, _, rng = archive
        offset, length = payload_coords(path, index=0)
        raw = bytearray(path.read_bytes())
        # Flip bytes mid-payload; the footer still matches the manifest,
        # so the damage is invisible until the blob is actually read.
        middle = offset + length // 2
        raw[middle] ^= 0xFF
        path.write_bytes(bytes(raw))

        mapped = load_database(path, mmap=True)
        assert all(s.is_lazy for s in mapped.catalog.segments)
        with pytest.raises(DatasetError, match="first touch"):
            mapped.query(rng.normal(size=LENGTH), k=3, method="naive")

    def test_eager_loader_catches_the_same_corruption_at_open(self, archive):
        path, _, _ = archive
        offset, length = payload_coords(path, index=0)
        raw = bytearray(path.read_bytes())
        raw[offset + length // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        eager = load_database(path)
        assert any(q.reason == "checksum mismatch"
                   for q in eager.catalog.quarantined)


class TestFallbackAndTransport:
    def test_v3_archive_falls_back_to_eager(self, tmp_path):
        db, rng = build_db()
        path = tmp_path / "legacy.npz"
        save_database(db, path, format_version=3)
        loaded = load_database(path, mmap=True)  # nothing mappable: eager
        query = rng.normal(size=LENGTH)
        assert fingerprint_of(loaded.query(query, k=5, method="index")) == \
            fingerprint_of(db.query(query, k=5, method="index"))

    def test_buffer_loads_eagerly_even_when_mapped(self, archive):
        path, db, rng = archive
        spiked = rng.normal(size=LENGTH)
        spiked[0] = 500.0  # far out of bound: stays buffered
        db.insert(spiked)
        assert len(db.buffer) > 0
        save_database(db, path, pack_bitsets=True)
        mapped = load_database(path, mmap=True)
        assert len(mapped.buffer) == len(db.buffer)
