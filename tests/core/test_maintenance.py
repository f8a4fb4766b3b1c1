"""Background maintenance engine: tiering, eviction, cadence, crashes.

Covers the policy layer (``tier_of``/``plan_merge``), the engine's
trigger semantics (background merges fire past ``max_segments``;
``run_until_idle`` quiesces to the tier fixpoint), the memory budget
(cold payloads released, lazily re-faulted bit-identically), the
checkpoint cadence (WAL records past the archive), and crash-during-
merge recovery at every injected fault point (DESIGN.md §15).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.core import (
    MaintenanceConfig,
    MaintenanceEngine,
    STS3Database,
    WriteAheadLog,
    default_wal_dir,
    load_database,
    plan_merge,
    recover_database,
    save_database,
    tier_of,
)
from repro.exceptions import ParameterError

LENGTH = 24


def _series(seed, spike=0.0):
    rng = np.random.default_rng(seed)
    out = rng.normal(size=LENGTH)
    if spike:
        out[seed % LENGTH] = spike
    return out


def _make_db(n=8, seed=0, **kwargs):
    kwargs.setdefault("buffer_capacity", 2)
    return STS3Database(
        [_series(seed + i) for i in range(n)],
        sigma=2, epsilon=0.5, normalize=False, **kwargs,
    )


def _seal_segments(db, count, per=2, seed=1000):
    """Seal ``count`` extra segments of ``per`` series each."""
    spike = 50.0
    for i in range(count):
        for j in range(per):
            spike += 10.0
            db.insert(_series(seed + i * per + j, spike=spike))
        db.flush()


def _answer(db, query, k=5):
    result = db.query(query, k=k, method="index")
    return [(n.index, round(n.similarity, 12)) for n in result.neighbors]


class TestTierPolicy:
    def test_tier_of_boundaries(self):
        assert tier_of(0, 64, 4) == 0
        assert tier_of(63, 64, 4) == 0
        assert tier_of(64, 64, 4) == 1
        assert tier_of(255, 64, 4) == 1
        assert tier_of(256, 64, 4) == 2
        assert tier_of(1024, 64, 4) == 3

    def test_plan_merge_picks_leftmost_window(self):
        class Stub:
            def __init__(self, n):
                self._n = n

            def __len__(self):
                return self._n

        config = MaintenanceConfig(tier_base=4, fanout=2)
        segments = [Stub(16), Stub(2), Stub(3), Stub(2), Stub(1)]
        assert plan_merge(segments, config) == (1, 3)

    def test_plan_merge_none_at_fixpoint(self):
        class Stub:
            def __init__(self, n):
                self._n = n

            def __len__(self):
                return self._n

        config = MaintenanceConfig(tier_base=4, fanout=2)
        assert plan_merge([Stub(16), Stub(4), Stub(2)], config) is None
        assert plan_merge([Stub(16)], config) is None
        assert plan_merge([], config) is None

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            MaintenanceConfig(fanout=1)
        with pytest.raises(ParameterError):
            MaintenanceConfig(tier_base=0)
        with pytest.raises(ParameterError):
            MaintenanceConfig(max_segments=0)
        with pytest.raises(ParameterError):
            MaintenanceConfig(checkpoint_every=0)
        with pytest.raises(ParameterError):
            MaintenanceConfig(memory_budget_bytes=-1)


class TestEngineMerges:
    def test_run_until_idle_reaches_fixpoint(self):
        db = _make_db()
        _seal_segments(db, 4)
        config = MaintenanceConfig(max_segments=2, tier_base=10_000, fanout=2)
        engine = MaintenanceEngine(db, config)
        engine.run_until_idle()
        assert plan_merge(db.catalog.segments, config) is None
        assert engine.merges >= 1
        assert db.verify_integrity() == []

    def test_background_matches_serial_baseline(self):
        """Interleaved background merges converge to the serial layout."""
        config = MaintenanceConfig(
            max_segments=2, tier_base=4, fanout=2, interval_s=0.002
        )
        background = _make_db()
        serial = _make_db()
        engine = MaintenanceEngine(background, config)
        engine.start()
        try:
            spike = 50.0
            for i in range(16):
                spike += 10.0
                background.insert(_series(2000 + i, spike=spike))
                serial.insert(_series(2000 + i, spike=spike))
                while plan_merge(serial.catalog.segments, config) is not None:
                    serial.catalog.merge_run(*plan_merge(
                        serial.catalog.segments, config))
                time.sleep(0.003)
        finally:
            engine.stop()
        background.flush()
        serial.flush()
        engine.run_until_idle()
        while plan_merge(serial.catalog.segments, config) is not None:
            serial.catalog.merge_run(*plan_merge(serial.catalog.segments, config))
        assert [len(s) for s in background.catalog.segments] == \
            [len(s) for s in serial.catalog.segments]
        query = _series(31337)
        assert _answer(background, query) == _answer(serial, query)

    def test_triggered_mode_respects_max_segments(self):
        db = _make_db()
        _seal_segments(db, 3)  # 4 live segments
        config = MaintenanceConfig(max_segments=8, tier_base=10_000, fanout=2)
        engine = MaintenanceEngine(db, config)
        before = len(db.catalog.segments)
        engine.run_pending(triggered_only=True)
        assert len(db.catalog.segments) == before  # under threshold: no-op
        engine.run_until_idle()
        assert len(db.catalog.segments) < before  # explicit quiesce merges

    def test_background_thread_enforces_ceiling(self):
        db = _make_db()
        config = MaintenanceConfig(
            max_segments=3, tier_base=4, fanout=2, interval_s=0.002
        )
        engine = db.enable_maintenance(config, start=True)
        try:
            spike = 50.0
            for i in range(24):
                spike += 10.0
                db.insert(_series(4000 + i, spike=spike))
                time.sleep(0.002)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if len(db.catalog.segments) <= config.max_segments:
                    break
                time.sleep(0.01)
            assert len(db.catalog.segments) <= config.max_segments
        finally:
            db.stop_maintenance()
        assert not engine.running

    def test_pause_blocks_merges_resume_restores(self):
        db = _make_db()
        _seal_segments(db, 4)
        config = MaintenanceConfig(max_segments=1, tier_base=10_000, fanout=2)
        engine = MaintenanceEngine(db, config)
        engine.pause()
        before = len(db.catalog.segments)
        engine.run_pending()
        assert len(db.catalog.segments) == before
        engine.resume()
        engine.run_until_idle()
        assert len(db.catalog.segments) < before

    def test_reader_pin_survives_background_merge(self):
        db = _make_db()
        _seal_segments(db, 4)
        snap = db.catalog.pin()
        layout = [len(s) for s in snap.segments]
        engine = MaintenanceEngine(
            db, MaintenanceConfig(max_segments=1, tier_base=10_000, fanout=2)
        )
        engine.run_until_idle()
        assert [len(s) for s in snap.segments] == layout
        assert db.catalog.pinned_snapshots() == 1
        db.catalog.release(snap)
        assert db.catalog.pinned_snapshots() == 0


class TestMemoryBudget:
    @pytest.fixture()
    def archive(self, tmp_path):
        db = _make_db(n=6)
        _seal_segments(db, 2, per=3)
        path = tmp_path / "db.sts3"
        save_database(db, path)
        return path

    def test_eviction_frees_and_refault_is_bit_identical(self, archive):
        db = load_database(archive, mmap=True)
        query = _series(777)
        before = _answer(db, query)  # materializes every segment
        resident = sum(s.resident_bytes() for s in db.catalog.segments)
        assert resident > 0
        # fanout > live segments: the engine can only evict, not merge,
        # so the layout (and with it every similarity) must be preserved
        config = MaintenanceConfig(memory_budget_bytes=1, fanout=64)
        engine = MaintenanceEngine(db, config)
        freed = engine.run_pending()["evicted_bytes"]
        assert freed > 0
        assert all(
            seg.resident_state == "mapped" for seg in db.catalog.segments
        )
        assert _answer(db, query) == before  # lazy re-fault, same bits
        db.close()

    def test_hot_segment_evicted_last(self, archive):
        db = load_database(archive, mmap=True)
        query = _series(778)
        _answer(db, query)  # materialize + stamp last_used on all
        hot = db.catalog.segments[-1]
        hot.mark_used()
        budget = hot.resident_bytes() + 1  # room for exactly the hot one
        engine = MaintenanceEngine(
            db, MaintenanceConfig(memory_budget_bytes=budget, fanout=64)
        )
        engine.run_pending()
        assert hot.resident_state == "resident"
        assert any(
            seg.resident_state == "mapped"
            for seg in db.catalog.segments if seg is not hot
        )
        db.close()

    def test_no_budget_means_no_eviction(self, archive):
        db = load_database(archive, mmap=True)
        _answer(db, _series(779))
        engine = MaintenanceEngine(db, MaintenanceConfig(fanout=64))
        assert engine.run_pending()["evicted_bytes"] == 0
        db.close()


class TestCheckpointCadence:
    def test_checkpoint_fires_and_resets_lag(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = _make_db()
        save_database(db, path)
        wal = WriteAheadLog(default_wal_dir(path), fsync_batch=1)
        db.attach_wal(wal)
        config = MaintenanceConfig(
            checkpoint_every=5, checkpoint_path=str(path)
        )
        engine = MaintenanceEngine(db, config)
        for i in range(4):
            db.insert(_series(5000 + i))
        assert not engine.run_pending()["checkpointed"]
        db.insert(_series(5004))
        assert wal.records_since_checkpoint == 5
        assert engine.run_pending()["checkpointed"]
        assert wal.records_since_checkpoint == 0
        assert engine.checkpoints == 1
        # the archive now covers everything: recovery has no replay debt
        recovered = recover_database(path, fsync_batch=1)
        assert len(recovered) == len(db)
        recovered.close()
        db.close()

    def test_watermark_restored_across_reopen(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = _make_db()
        save_database(db, path)
        wal = WriteAheadLog(default_wal_dir(path), fsync_batch=1)
        db.attach_wal(wal)
        for i in range(3):
            db.insert(_series(6000 + i))
        wal.close()
        reopened = recover_database(path, fsync_batch=1)
        # 3 records remain past the archive; a fresh process must see them
        assert reopened.wal.records_since_checkpoint == 3
        save_database(reopened, path)  # checkpoint retires them
        assert reopened.wal.records_since_checkpoint == 0
        reopened.close()
        db.close()

    def test_no_wal_no_checkpoint(self):
        db = _make_db()
        engine = MaintenanceEngine(
            db, MaintenanceConfig(checkpoint_every=1, checkpoint_path="/dev/null")
        )
        assert not engine.run_pending()["checkpointed"]


class TestCrashDuringMerge:
    """Crash at any injected point recovers bit-identical, unquarantined."""

    POINTS = [
        ("maintenance.merge.journal", False),
        ("maintenance.merge.publish", True),
        ("maintenance.merge.done", True),
    ]

    @pytest.fixture()
    def durable(self, tmp_path):
        path = tmp_path / "db.sts3"
        db = _make_db()
        save_database(db, path)
        wal = WriteAheadLog(default_wal_dir(path), fsync_batch=1)
        db.attach_wal(wal)
        _seal_segments(db, 2, per=3)
        config = MaintenanceConfig(max_segments=1, tier_base=10_000, fanout=2)
        assert plan_merge(db.catalog.segments, config) is not None
        return db, path, config

    @pytest.mark.parametrize("point,merge_survives", POINTS)
    def test_crash_recovers_history(self, durable, tmp_path, point,
                                    merge_survives):
        db, path, config = durable
        window = plan_merge(db.catalog.segments, config)
        # the reference: an identical copy where the merge either fully
        # applied (journaled before the crash) or never happened
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        shutil.copy(path, ref_dir / "db.sts3")
        shutil.copytree(default_wal_dir(path), default_wal_dir(ref_dir / "db.sts3"))
        reference = recover_database(ref_dir / "db.sts3", fsync_batch=1)
        if merge_survives:
            reference.merge_run(*plan_merge(reference.catalog.segments, config))

        plan = faults.FaultPlan([faults.Fault(point, "crash")])
        with pytest.raises(faults.SimulatedCrash):
            with faults.inject(plan):
                db.merge_run(*window)
        db.wal._file.close()  # the "process" died; drop the fd only

        recovered = recover_database(path, fsync_batch=1)
        assert len(recovered) == len(reference)
        assert not recovered.catalog.quarantined
        assert [len(s) for s in recovered.catalog.segments] == \
            [len(s) for s in reference.catalog.segments]
        query = _series(90210)
        assert _answer(recovered, query) == _answer(reference, query)
        assert recovered.verify_integrity() == []
        recovered.close()
        reference.close()

    def test_engine_records_crash_and_stops(self, durable):
        db, path, config = durable
        engine = MaintenanceEngine(db, config)
        plan = faults.FaultPlan([faults.Fault("maintenance.merge.build", "crash")])
        with pytest.raises(faults.SimulatedCrash):
            with faults.inject(plan):
                engine.run_until_idle()
        db.close()


class TestStatusSurface:
    def test_status_without_engine(self):
        db = _make_db()
        status = db.maintenance_status()
        assert status["engine"] is None
        assert status["max_segments"] is None
        assert status["live_segments"] == len(db.catalog.segments)
        assert status["wal_lag"] == 0
        assert status["resident_bytes"] > 0

    def test_status_with_engine(self):
        db = _make_db()
        _seal_segments(db, 2)
        db.enable_maintenance(
            MaintenanceConfig(max_segments=1, tier_base=10_000, fanout=2)
        )
        db.maintenance.run_until_idle()
        status = db.maintenance_status()
        assert status["engine"] == "idle"
        assert status["max_segments"] == 1
        assert status["merges"] >= 1
        assert status["last_error"] is None
        db.stop_maintenance()
        assert db.maintenance is None
