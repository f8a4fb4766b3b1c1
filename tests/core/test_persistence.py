"""Tests for database save/load round-trips."""

import json

import numpy as np
import pytest

from repro import STS3Database
from repro.cli import main
from repro.core.persistence import load_database, save_database, verify_archive
from repro.exceptions import DatasetError

from ..conftest import rewrite_manifest


@pytest.fixture
def db():
    rng = np.random.default_rng(0)
    return STS3Database(
        [rng.normal(size=48) for _ in range(20)], sigma=3, epsilon=0.4
    )


class TestRoundTrip:
    def test_basic(self, db, tmp_path):
        path = tmp_path / "db.sts3"
        save_database(db, path)
        loaded = load_database(path)
        assert len(loaded) == len(db)
        assert loaded.sigma == db.sigma
        assert loaded.epsilon == db.epsilon
        assert loaded.verify_integrity() == []

    def test_queries_identical(self, db, tmp_path):
        path = tmp_path / "db.sts3"
        save_database(db, path)
        loaded = load_database(path)
        rng = np.random.default_rng(1)
        for _ in range(3):
            query = rng.normal(size=48)
            a = db.query(query, k=4, method="index")
            b = loaded.query(query, k=4, method="index")
            assert a.indices() == b.indices()
            assert a.similarities() == b.similarities()

    def test_buffer_survives(self, tmp_path):
        rng = np.random.default_rng(2)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(8)],
            sigma=2,
            epsilon=0.5,
            normalize=False,
            buffer_capacity=5,
        )
        spike = np.zeros(32)
        spike[4] = 99.0
        db.insert(spike)
        provisional = db.query(spike, k=1, method="naive").best.index

        path = tmp_path / "db.sts3"
        save_database(db, path)
        loaded = load_database(path)
        assert len(loaded.buffer) == 1
        assert loaded.query(spike, k=1, method="naive").best.index == provisional

    def test_multidim(self, tmp_path):
        rng = np.random.default_rng(3)
        db = STS3Database(
            [rng.normal(size=(24, 2)) for _ in range(6)], sigma=2, epsilon=(0.4, 0.8)
        )
        path = tmp_path / "db.sts3"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.epsilon == (0.4, 0.8)
        assert loaded.series[0].shape == (24, 2)
        query = db.series[2]
        assert loaded.query(query, k=1, method="naive").best.similarity == 1.0

    def test_unequal_lengths(self, tmp_path):
        rng = np.random.default_rng(4)
        db = STS3Database(
            [rng.normal(size=n) for n in (16, 24, 32)], sigma=2, epsilon=0.5
        )
        path = tmp_path / "db.sts3"
        save_database(db, path)
        loaded = load_database(path)
        assert [len(s) for s in loaded.series] == [16, 24, 32]

    def test_rebuild_count_preserved(self, tmp_path):
        rng = np.random.default_rng(5)
        db = STS3Database(
            [rng.normal(size=16) for _ in range(4)],
            sigma=2, epsilon=0.5, normalize=False, buffer_capacity=1,
        )
        spike = np.zeros(16)
        spike[0] = 50.0
        db.insert(spike)  # buffer fills → rebuild
        assert db.rebuild_count == 1
        path = tmp_path / "db.sts3"
        save_database(db, path)
        assert load_database(path).rebuild_count == 1


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_database(tmp_path / "nope.sts3")

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(DatasetError):
            load_database(path)

    def test_wrong_version(self, db, tmp_path):
        path = tmp_path / "db.sts3"
        save_database(db, path)

        def bump(manifest):
            manifest["format_version"] = 5

        rewrite_manifest(path, bump)
        for mmap in (False, True):
            with pytest.raises(DatasetError, match="format version 5"):
                load_database(path, mmap=mmap)

    def test_pre_v4_archive_rejected(self, tmp_path, capsys):
        """A one-``.npz`` archive (the pre-v4 layout) is refused, with
        the re-save recipe, by every way of opening it."""
        path = tmp_path / "old.npz"
        header = {"format_version": 3, "sigma": 2, "epsilon": 0.5}
        np.savez(
            path,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            n_dims=np.int64(1),
            series=np.zeros((2, 8)),
            lengths=np.array([8, 8]),
        )
        for mmap in (False, True):
            with pytest.raises(DatasetError, match="re-save"):
                load_database(path, mmap=mmap)
        with pytest.raises(DatasetError, match="re-save"):
            verify_archive(path)
        assert main(["verify", str(path)]) == 2
        assert main(["inspect", str(path)]) == 2
        assert "pre-v4" in capsys.readouterr().err


def two_segment_db(rng):
    db = STS3Database(
        [rng.normal(size=32) for _ in range(10)],
        sigma=2, epsilon=0.5, normalize=False, buffer_capacity=2,
    )
    for i in range(2):  # fills the buffer → seals a delta segment
        spike = rng.normal(size=32)
        spike[0] = 60.0 + 10.0 * i
        db.insert(spike)
    assert len(db.catalog.segments) == 2
    return db


class TestFormatVersions:
    def test_v2_archive_restores_segment_table(self, tmp_path):
        """A multi-segment archive restores its segment table exactly."""
        rng = np.random.default_rng(7)
        db = two_segment_db(rng)
        path = tmp_path / "db.sts3"
        save_database(db, path)
        loaded = load_database(path)
        assert [len(s) for s in loaded.catalog.segments] == [
            len(s) for s in db.catalog.segments
        ]
        query = rng.normal(size=32)
        for method in ("naive", "index", "pruning", "approximate"):
            a = db.query(query, k=3, method=method)
            b = loaded.query(query, k=3, method=method)
            assert a.indices() == b.indices()
            assert a.similarities() == b.similarities()

    def test_truncated_segment_table_rejected(self, tmp_path):
        """A manifest that under-counts its only segment leaves nothing
        trustworthy: the eager open raises, the mapped one at first touch."""
        rng = np.random.default_rng(8)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(6)], sigma=2, epsilon=0.5
        )
        path = tmp_path / "db.sts3"
        save_database(db, path)

        def corrupt(manifest):
            manifest["segments"][0]["size"] = 3  # claims fewer than stored

        rewrite_manifest(path, corrupt)
        with pytest.raises(DatasetError, match="holds 6 series, manifest says 3"):
            load_database(path)
        mapped = load_database(path, mmap=True)
        with pytest.raises(DatasetError, match="first touch"):
            mapped.query(rng.normal(size=32), k=1, method="naive")


class TestSizeMismatch:
    """A payload whose series count disagrees with its manifest row."""

    @pytest.fixture
    def archive(self, tmp_path):
        rng = np.random.default_rng(9)
        db = two_segment_db(rng)
        path = tmp_path / "db.sts3"
        save_database(db, path)

        def overcount(manifest):
            manifest["segments"][1]["size"] = 5  # the delta holds 2

        rewrite_manifest(path, overcount)
        return path, rng

    def test_eager_open_quarantines(self, archive):
        path, rng = archive
        loaded = load_database(path)
        assert [len(s) for s in loaded.catalog.segments] == [10]
        [record] = loaded.catalog.quarantined
        assert record.name == "segment-1"
        assert record.reason == "payload holds 2 series, manifest says 5"
        result = loaded.query(rng.normal(size=32), k=3, method="index")
        assert result.complete is False

    def test_mapped_open_raises_at_first_touch(self, archive):
        path, rng = archive
        mapped = load_database(path, mmap=True)
        assert not mapped.catalog.quarantined
        assert len(mapped.catalog.segments[0].series) == 10
        with pytest.raises(DatasetError, match="holds 2 series, manifest says 5"):
            mapped.catalog.segments[1].series
