"""Crash-recovery suite: kill the database at every injection point.

The durability contract (docs/durability.md):

1. **No acknowledged write is lost.**  A write is acknowledged once its
   WAL record is fsynced (``seq <= wal.synced_seq``).  These tests run
   with ``fsync_batch=1`` so every applied insert is acknowledged, then
   crash at each injection point and assert the recovered database
   contains every acknowledged insert.
2. **Recovery is bit-identical.**  The recovered database's k-NN
   answers (indices *and* similarities) equal those of an uninterrupted
   twin built over the same writes.
3. **Corruption is quarantined, not raised.**  A checksum-corrupt
   segment payload degrades queries (``complete=False``) instead of
   tracebacking.

Faults come from :mod:`repro.faults` — seeded, deterministic, no wall
clock — so every scenario replays identically under ``pytest -p
no:randomly`` and in CI's dedicated crash-recovery job.
"""

import numpy as np
import pytest

from repro import STS3Database, faults
from repro.core import (
    WriteAheadLog,
    default_wal_dir,
    load_database,
    recover_database,
    save_database,
    verify_archive,
)
from repro.core import persistence
from repro.exceptions import DatasetError
from repro.faults import Fault, FaultPlan, SimulatedCrash
from repro.obs import get_registry

LENGTH = 40
N_BASE = 20


def base_series():
    rng = np.random.default_rng(7)
    return [rng.normal(size=LENGTH) for _ in range(N_BASE)]


def insert_series(n):
    """Deterministic out-of-bound inserts (longer => new time bound)."""
    rng = np.random.default_rng(1234)
    return [rng.normal(size=LENGTH + 8) for _ in range(n)]


def queries(n=4):
    rng = np.random.default_rng(99)
    return [rng.normal(size=LENGTH) for _ in range(n)]


def make_checkpointed_db(path, fsync_batch=1, buffer_capacity=4):
    db = STS3Database(
        base_series(), sigma=2, epsilon=0.5, buffer_capacity=buffer_capacity
    )
    db.attach_wal(WriteAheadLog(default_wal_dir(path), fsync_batch=fsync_batch))
    save_database(db, path)
    return db


def oracle_db(n_inserts, buffer_capacity=4):
    """An uninterrupted twin: base + the first ``n_inserts`` inserts."""
    db = STS3Database(
        base_series(), sigma=2, epsilon=0.5, buffer_capacity=buffer_capacity
    )
    for series in insert_series(n_inserts)[:n_inserts]:
        db.insert(series)
    return db


def assert_bit_identical(got_db, want_db, k=5):
    assert len(got_db) == len(want_db)
    for q in queries():
        got = got_db.query(q, k=k, method="index")
        want = want_db.query(q, k=k, method="index")
        assert got.indices() == want.indices()
        assert got.similarities() == want.similarities()


class TestWalCrashes:
    """Crashes on the insert path: the WAL append/fsync machinery."""

    @pytest.mark.parametrize("kind", ["crash", "torn"])
    @pytest.mark.parametrize("hit", [1, 3, 6])
    def test_crash_at_wal_append(self, tmp_path, kind, hit):
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path)
        applied = 0
        with faults.inject(FaultPlan([Fault("wal.append", kind, hit=hit)], seed=hit)):
            with pytest.raises(SimulatedCrash):
                for series in insert_series(8):
                    db.insert(series)
                    applied += 1
        # the dying insert was never applied nor acknowledged (hit and
        # insert counts diverge past the buffer boundary because the
        # auto-flush record consumes a wal.append hit too)
        assert applied < 8
        recovered = recover_database(path)
        assert_bit_identical(recovered, oracle_db(applied))
        recovered.close()

    @pytest.mark.parametrize("hit", [1, 4])
    def test_crash_at_wal_fsync(self, tmp_path, hit):
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path)
        applied = 0
        with faults.inject(FaultPlan([Fault("wal.sync", "crash", hit=hit)], seed=1)):
            with pytest.raises(SimulatedCrash):
                for series in insert_series(8):
                    db.insert(series)
                    applied += 1
        # the record reached the OS before the fsync died, so recovery
        # may legitimately include it — the contract is only that no
        # *acknowledged* (applied == acked at batch=1) write is lost.
        recovered = recover_database(path)
        n_recovered = len(recovered) - N_BASE
        assert n_recovered >= applied
        assert_bit_identical(recovered, oracle_db(n_recovered))
        recovered.close()

    def test_bitflip_in_wal_record_truncates_tail(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path)
        with faults.inject(
            FaultPlan([Fault("wal.append", "bitflip", hit=3)], seed=5)
        ):
            for series in insert_series(5):
                db.insert(series)
        db.wal.sync()
        # silent corruption: the live process noticed nothing, but
        # replay stops at the bad CRC and keeps the intact prefix.
        recovered = recover_database(path)
        assert len(recovered) - N_BASE == 2
        assert_bit_identical(recovered, oracle_db(2))
        recovered.close()

    def test_enospc_on_wal_append_loses_nothing_applied(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path)
        with faults.inject(
            FaultPlan([Fault("wal.append", "enospc", hit=2)], seed=2)
        ):
            db.insert(insert_series(2)[0])
            with pytest.raises(OSError):
                db.insert(insert_series(2)[1])
        recovered = recover_database(path)
        assert_bit_identical(recovered, oracle_db(1))
        recovered.close()

    def test_crash_spanning_flush_and_rotation(self, tmp_path):
        """Inserts that seal a segment (flush record + rotation) recover."""
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path, buffer_capacity=3)
        n = 7  # crosses two auto-flush boundaries at capacity 3
        for series in insert_series(n):
            db.insert(series)
        expected_segments = len(db.catalog.segments)
        # crash without closing the WAL
        recovered = recover_database(path)
        assert len(recovered.catalog.segments) == expected_segments
        assert_bit_identical(recovered, oracle_db(n, buffer_capacity=3))
        recovered.close()

    def test_recovered_database_keeps_journaling(self, tmp_path):
        """Post-recovery writes are themselves durable (WAL re-attached)."""
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path)
        db.insert(insert_series(1)[0])
        first = recover_database(path)
        assert first.wal is not None
        for series in insert_series(4)[1:4]:
            first.insert(series)
        # crash again, recover again: both generations of writes survive
        second = recover_database(path)
        assert_bit_identical(second, oracle_db(4))
        second.close()


class TestArchiveCrashes:
    """Crashes during save_database: atomicity of the v4 container."""

    @pytest.mark.parametrize(
        "point, kind",
        [
            ("persist.payload.write", "crash"),
            ("persist.payload.write", "torn"),
            ("persist.manifest.write", "torn"),
            ("persist.sync", "crash"),
            ("persist.rename", "crash"),
        ],
    )
    def test_interrupted_save_preserves_old_archive(self, tmp_path, point, kind):
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path)
        for series in insert_series(6):
            db.insert(series)
        db.wal.sync()
        with faults.inject(FaultPlan([Fault(point, kind)], seed=3)):
            with pytest.raises(SimulatedCrash):
                save_database(db, path)
        assert not path.with_name(path.name + ".tmp").exists()
        # the old checkpoint plus the intact WAL reconstruct everything
        recovered = recover_database(path)
        assert_bit_identical(recovered, db)
        recovered.close()

    def test_enospc_during_save_is_retried(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = STS3Database(base_series(), sigma=2, epsilon=0.5)
        key = 'sts3_io_retries_total{op="save"}'
        before = get_registry().snapshot()["counters"].get(key, 0)
        with faults.inject(
            FaultPlan([Fault("persist.payload.write", "enospc")], seed=6)
        ) as plan:
            save_database(db, path)
        assert plan.triggered  # the fault really fired
        after = get_registry().snapshot()["counters"].get(key, 0)
        assert after == before + 1
        assert_bit_identical(load_database(path), db)

    def test_save_checkpoint_retires_wal(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = make_checkpointed_db(path)
        for series in insert_series(5):
            db.insert(series)
        save_database(db, path)
        report = verify_archive(path)
        assert report["wal"]["replay_lag"] == 0
        recovered = recover_database(path)
        assert_bit_identical(recovered, db)
        recovered.close()


class TestQuarantine:
    """Checksum corruption: quarantined, degraded, never a traceback."""

    def _multi_segment_db(self, buffer_capacity=4):
        db = STS3Database(
            base_series(), sigma=2, epsilon=0.5, buffer_capacity=buffer_capacity
        )
        for series in insert_series(8):
            db.insert(series)
        assert len(db.catalog.segments) >= 2
        return db

    @pytest.mark.parametrize("hit", [1, 2])
    def test_bitflipped_payload_quarantined(self, tmp_path, hit):
        path = tmp_path / "db.sts3"
        db = self._multi_segment_db()
        with faults.inject(
            FaultPlan([Fault("persist.payload.write", "bitflip", hit=hit)], seed=8)
        ):
            save_database(db, path)
        loaded = load_database(path)  # no exception
        assert [q.name for q in loaded.catalog.quarantined] == [
            f"segment-{hit - 1}"
        ]
        assert loaded.catalog.quarantined[0].reason == "checksum mismatch"
        result = loaded.query(queries(1)[0], k=3, method="index")
        assert result.complete is False
        assert result.degraded_reason == "quarantine"
        assert result.skipped_segments == [f"segment-{hit - 1}"]

    def test_quarantine_visible_in_metrics(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = self._multi_segment_db()
        with faults.inject(
            FaultPlan([Fault("persist.payload.write", "bitflip")], seed=9)
        ):
            save_database(db, path)
        loaded = load_database(path)
        snap = get_registry().snapshot()
        assert snap["gauges"]["sts3_quarantined_segments"] == 1.0
        degraded_key = 'sts3_degraded_queries_total{reason="quarantine"}'
        before = snap["counters"].get(degraded_key, 0)
        loaded.query(queries(1)[0], k=3, method="index")
        after = get_registry().snapshot()["counters"].get(degraded_key, 0)
        assert after == before + 1

    def test_batch_queries_degrade_too(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = self._multi_segment_db()
        with faults.inject(
            FaultPlan([Fault("persist.payload.write", "bitflip")], seed=10)
        ):
            save_database(db, path)
        loaded = load_database(path)
        results = loaded.query_batch(queries(3), k=3, method="index")
        assert all(r.complete is False for r in results)
        assert all(r.degraded_reason == "quarantine" for r in results)

    def test_all_segments_corrupt_raises_cleanly(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = STS3Database(base_series(), sigma=2, epsilon=0.5)
        with faults.inject(
            FaultPlan(
                [Fault("persist.payload.write", "bitflip", repeat=True)], seed=11
            )
        ):
            save_database(db, path)
        with pytest.raises(DatasetError, match="failed verification"):
            load_database(path)

    def test_verify_archive_reports_corruption(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = self._multi_segment_db()
        with faults.inject(
            FaultPlan([Fault("persist.payload.write", "bitflip", hit=2)], seed=12)
        ):
            save_database(db, path)
        report = verify_archive(path)
        statuses = {p["name"]: p["status"] for p in report["payloads"]}
        assert statuses["segment-0"] == "ok"
        assert statuses["segment-1"] == "checksum mismatch"
        assert report["problems"]

    def test_truncated_trailer_is_dataset_error(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = STS3Database(base_series(), sigma=2, epsilon=0.5)
        save_database(db, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(DatasetError):
            load_database(path)


class TestRetryBackoff:
    def test_backoff_is_seeded_jittered_capped(self):
        calls = []

        plan = FaultPlan(
            [Fault("persist.read", "enospc", hit=1),
             Fault("persist.read", "enospc", hit=2),
             Fault("persist.read", "enospc", hit=3)],
            seed=0,
        )
        with faults.inject(plan):
            persistence._retry_rng.seed(42)

            def flaky():
                faults.fault_point("persist.read")
                return "ok"

            assert persistence._with_retries("save", flaky) == "ok"
        # three sleeps on the virtual clock, exponentially growing,
        # each at most the cap
        assert plan.time() > 0
        assert plan.time() <= 3 * persistence.RETRY_MAX_DELAY * 1.5

    def test_retries_exhausted_reraises(self):
        plan = FaultPlan(
            [Fault("persist.read", "enospc", repeat=True)], seed=0
        )
        with faults.inject(plan):
            def always_fails():
                faults.fault_point("persist.read")

            with pytest.raises(OSError):
                persistence._with_retries("save", always_fails)

    def test_simulated_crash_is_never_retried(self):
        plan = FaultPlan([Fault("persist.read", "crash", hit=1)], seed=0)
        with faults.inject(plan):
            def crashes():
                faults.fault_point("persist.read")

            with pytest.raises(SimulatedCrash):
                persistence._with_retries("save", crashes)
        # exactly one attempt: the crash propagated immediately
        assert plan.hits["persist.read"] == 1
