"""WAL-shipping replication: follower parity, shipping, and failover.

docs/replication.md's contracts, exercised with real follower
processes on deliberately small corpora (the same sizing rationale as
``test_sharded_database.py`` — these tests fork, kill, and promote
processes, so the workload is sized for the lifecycle):

1. **follower parity** — a caught-up follower answers bit-identically
   (``float.hex``) to its primary, so promoting it changes no answer,
2. **lag** — a partitioned follower's lag grows; healing the
   partition drains it back to zero,
3. **failover** — SIGKILL the primary mid-insert-storm and the
   freshest follower is promoted with zero acked-write loss: every
   acknowledged insert is present and post-promotion answers are
   bit-identical to a never-failed single-process engine,
4. **fencing** — an ack carrying a stale epoch is never believed.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import STS3Database
from repro.core.replication import replica_mirror_name
from repro.core.rpc import call_packed
from repro.core.shard import ShardedDatabase, ShardError
from repro.core.wal import read_applied_seq, scan_wal
from repro.exceptions import FollowerWriteError
from repro.serve.protocol import pack_message

LENGTH = 32
SIGMA = 2
EPSILON = 0.5


def make_series(rng, n):
    return [rng.normal(size=LENGTH) for _ in range(n)]


def hex_answers(results):
    """Exact neighbor lists: (global id, similarity as hex) per query."""
    return [
        [(n.index, float(n.similarity).hex()) for n in r.neighbors]
        for r in results
    ]


def build_pair(tmp_path, seed=11, n_series=120, shards=2, replicas=2, **kw):
    """The same corpus as a single-process oracle and a replicated one."""
    rng = np.random.default_rng(seed)
    series = make_series(rng, n_series)
    single = STS3Database(series, sigma=SIGMA, epsilon=EPSILON, normalize=False)
    sharded = ShardedDatabase.build(
        series, shards, tmp_path / "shards",
        sigma=SIGMA, epsilon=EPSILON, normalize=False,
        replicas=replicas, **kw,
    )
    return single, sharded, rng


def follower_answers(sharded, queries, k):
    """Ask every caught-up follower what its primary answers, bit for bit.

    Followers serve no engine reads, so one packed ``query`` frame goes
    straight down each pipe — the primary's and each live follower's
    with zero lag — and the wire answers are compared as ``float.hex``.
    Nothing is shipped first: a follower that acked records it never
    applied shows up here as a mismatch.  Returns the compared
    followers' answers keyed by ``(shard, replica)``.
    """
    header = {
        "op": "query", "k": int(k), "method": "index",
        "scale": None, "max_scale": None, "deadline_ms": None,
    }
    arrays = [np.asarray(q, dtype=np.float64) for q in queries]

    def ask(conn):
        req = next(sharded._reqs)
        reply, _ = call_packed(
            conn, pack_message({**header, "req": req}, arrays), req,
            sharded.rpc_timeout,
        )
        assert reply["op"] == "result", reply
        assert all(wire["complete"] for wire in reply["results"])
        return [
            [(int(i), float(sim).hex()) for i, sim in wire["neighbors"]]
            for wire in reply["results"]
        ]

    answers = {}
    with sharded._lock:
        for shard_id in range(sharded.n_shards):
            expected = ask(sharded._workers[shard_id].conn)
            for handle in sharded._replicas.live(shard_id):
                if sharded._replicas.lag_records(handle):
                    continue
                got = ask(handle.conn)
                assert got == expected, (shard_id, handle.replica_id)
                answers[shard_id, handle.replica_id] = got
    return answers


def shard_lag(sharded, shard_id):
    """Per-replica lag_records for one shard (None for dead followers)."""
    [entry] = [e for e in sharded.replica_status() if e["shard"] == shard_id]
    return [r.get("lag_records") for r in entry["replicas"]]


class TestReplicaReads:
    def test_replica_answers_bit_identical(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path)
        try:
            queries = make_series(rng, 8)
            got = sharded.query_batch(queries, k=7)
            assert hex_answers(got) == hex_answers(single.query_batch(queries, k=7))
            assert all(r.complete and r.skipped_shards == [] for r in got)
            assert len(follower_answers(sharded, queries, k=7)) == 4
        finally:
            single.close()
            sharded.close()

    def test_replica_reads_cover_fresh_inserts(self, tmp_path):
        # shipping runs inline after each acked insert, so a follower
        # is at most one insert behind — and zero behind by ack time
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            probe = rng.normal(size=LENGTH) * 8.0
            report = sharded.insert(probe)
            answers = follower_answers(sharded, [probe], k=1)
            assert len(answers) == 4
            for (shard_id, _), [neighbors] in answers.items():
                if shard_id == report["shard"]:
                    assert neighbors[0] == (report["id"], (1.0).hex())
        finally:
            sharded.close()


class TestShippingAndLag:
    def test_steady_state_lag_is_zero(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            for _ in range(4):
                sharded.insert(rng.normal(size=LENGTH))
            for entry in sharded.replica_status():
                for replica in entry["replicas"]:
                    assert replica["alive"]
                    assert replica["lag_records"] == 0
                    assert replica["applied_seq"] == entry["primary_seq"]
        finally:
            sharded.close()

    def test_partition_grows_lag_then_heals(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        try:
            for shard_id in range(sharded.n_shards):
                sharded._replicas.set_partitioned(shard_id, 0, True)
            reports = [sharded.insert(rng.normal(size=LENGTH)) for _ in range(6)]
            lagged = {r["shard"] for r in reports}
            for shard_id in lagged:
                [lag] = shard_lag(sharded, shard_id)
                # every insert this shard acked is still unshipped
                assert lag == sum(r["shard"] == shard_id for r in reports) * 2
            for shard_id in range(sharded.n_shards):
                sharded._replicas.set_partitioned(shard_id, 0, False)
            sharded.ship_replication()
            for shard_id in range(sharded.n_shards):
                assert shard_lag(sharded, shard_id) == [0]
        finally:
            sharded.close()

    def test_mirror_sidecar_tracks_primary_watermark(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        directory = sharded.directory
        try:
            for _ in range(3):
                sharded.insert(rng.normal(size=LENGTH))
            touched = 0
            for entry in sharded.replica_status():
                mirror = directory / replica_mirror_name(entry["shard"], 0)
                assert read_applied_seq(mirror) == entry["primary_seq"]
                records, report = scan_wal(mirror)
                assert not report.problems
                if entry["primary_seq"] > 0:
                    touched += 1
                    assert records[-1]["seq"] == entry["primary_seq"]
            assert touched >= 1  # the storm landed somewhere
        finally:
            sharded.close()

    def test_checkpoint_drains_replication_first(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            for probe in make_series(rng, 4):
                sharded.insert(probe)
            sharded.save()
            # followers survive the checkpoint and stay caught up
            for entry in sharded.replica_status():
                for replica in entry["replicas"]:
                    assert replica["alive"]
                    assert replica["lag_records"] == 0
            # followers still answer bit-identically to their primaries
            assert len(follower_answers(sharded, make_series(rng, 4), k=5)) == 4
        finally:
            sharded.close()

    def test_checkpoint_gap_rebootstraps_partitioned_follower(self, tmp_path):
        # a follower partitioned across a checkpoint cannot catch up by
        # shipping (the generations it was tailing are retired); the
        # next ship observes the gap and re-bootstraps it from the
        # (necessarily newer) archive
        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        try:
            probe = rng.normal(size=LENGTH) * 8.0
            report = sharded.insert(probe)
            shard_id = report["shard"]
            sharded._replicas.set_partitioned(shard_id, 0, True)
            missed = make_series(rng, 2)
            for series in missed:
                sharded.insert(series)
            assert shard_lag(sharded, shard_id) != [0]
            sharded.save()
            sharded._replicas.set_partitioned(shard_id, 0, False)
            sharded.ship_replication()
            assert shard_lag(sharded, shard_id) == [0]
            # the re-bootstrapped follower holds what it was cut off from
            answers = follower_answers(sharded, [probe, *missed], k=1)
            assert answers[shard_id, 0][0][0] == (report["id"], (1.0).hex())
        finally:
            sharded.close()


class TestFailover:
    def test_sigkill_mid_insert_storm_zero_acked_loss(self, tmp_path):
        """The headline drill: kill a primary mid-storm, lose nothing.

        The oracle is a never-failed sharded engine fed the identical
        build and insert stream (insert answers are path-dependent, so
        the honest baseline is the same engine without the fault).
        Every insert acked by the drilled engine is applied to the
        oracle; after the kill + promotion the two must agree
        bit-for-bit on every answer, with ``complete=True`` — the
        zero-acked-write-loss contract.
        """
        rng = np.random.default_rng(11)
        series = make_series(rng, 80)
        sharded = ShardedDatabase.build(
            series, 2, tmp_path / "drilled",
            sigma=SIGMA, epsilon=EPSILON, normalize=False, replicas=2,
        )
        oracle = ShardedDatabase.build(
            series, 2, tmp_path / "oracle",
            sigma=SIGMA, epsilon=EPSILON, normalize=False,
        )
        try:
            acked = []
            for _ in range(6):
                probe = rng.normal(size=LENGTH)
                acked.append(sharded.insert(probe))
                oracle.insert(probe)
            victim = acked[-1]["shard"]
            sharded.kill_worker(victim)
            # the storm continues: an insert whose RPC fails reconciles
            # against the promoted follower — committed if the journaled
            # write survived, raised (never acked) otherwise, in which
            # case the client retries; the oracle only sees acked writes
            for _ in range(6):
                probe = rng.normal(size=LENGTH)
                for _attempt in range(3):
                    try:
                        acked.append(sharded.insert(probe))
                        break
                    except ShardError:
                        continue  # not acked; retry against new primary
                else:
                    raise AssertionError("insert never acknowledged")
                oracle.insert(probe)
            assert len(sharded) == len(oracle)
            assert [a["id"] for a in acked] == list(range(80, 92))
            queries = make_series(rng, 6)
            expected = hex_answers(oracle.query_batch(queries, k=7))
            got = sharded.query_batch(queries, k=7)
            assert hex_answers(got) == expected
            assert all(r.complete for r in got)
            assert all(r.skipped_shards == [] for r in got)
            assert sharded.manifest["epochs"][victim] >= 1
        finally:
            oracle.close()
            sharded.close()

    def test_query_after_kill_promotes_and_stays_complete(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path)
        try:
            sharded.kill_worker(0)
            queries = make_series(rng, 4)
            got = sharded.query_batch(queries, k=5)
            assert all(r.complete for r in got)
            assert all(r.skipped_shards == [] for r in got)
            assert hex_answers(got) == hex_answers(
                single.query_batch(queries, k=5)
            )
            assert sharded.manifest["epochs"][0] == 1
            # one follower was consumed by the promotion
            [entry] = [e for e in sharded.replica_status() if e["shard"] == 0]
            assert sum(1 for r in entry["replicas"] if r["alive"]) == 1
            assert entry["wal_dir"] == replica_mirror_name(0, 0)
        finally:
            single.close()
            sharded.close()

    def test_manual_promote_runbook(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path)
        try:
            probe = rng.normal(size=LENGTH) * 8.0
            report = sharded.insert(probe)
            before = sharded.manifest["epochs"][report["shard"]]
            # promotion must not change any answer: the follower caught
            # up from the drained WAL is the same database
            queries = make_series(rng, 4)
            expected = hex_answers(sharded.query_batch(queries, k=5))
            ready = sharded.promote(report["shard"])
            assert ready["promoted"]
            assert sharded.manifest["epochs"][report["shard"]] == before + 1
            assert hex_answers(sharded.query_batch(queries, k=5)) == expected
            result = sharded.query(probe, k=1)
            assert result.complete
            assert result.neighbors[0].index == report["id"]
        finally:
            sharded.close()

    def test_promote_without_replicas_rejected(self, tmp_path):
        _, sharded, _ = build_pair(tmp_path, n_series=60, replicas=0)
        try:
            with pytest.raises(ShardError):
                sharded.promote(0)
        finally:
            sharded.close()

    def test_reopen_after_failover_reads_promoted_wal(self, tmp_path):
        # the manifest's wal_dirs entry survives the failover, so a
        # cold reopen recovers the shard from the promoted follower's
        # mirror — including writes journaled *after* the promotion
        _, sharded, rng = build_pair(tmp_path)
        directory = sharded.directory
        queries = make_series(rng, 4)
        try:
            sharded.kill_worker(0)
            sharded.query(queries[0], k=1)  # triggers the failover
            assert sharded.manifest["epochs"][0] == 1
            probe = rng.normal(size=LENGTH) * 8.0
            report = sharded.insert(probe)
            expected = hex_answers(sharded.query_batch(queries, k=5))
        finally:
            sharded.close()  # no save(): the promoted WAL is the record
        manifest = ShardedDatabase.read_manifest(directory)
        assert manifest["epochs"][0] == 1
        reopened = ShardedDatabase.open(directory)
        try:
            assert len(reopened) == 121
            result = reopened.query(probe, k=1)
            assert result.neighbors[0].index == report["id"]
            assert hex_answers(reopened.query_batch(queries, k=5)) == expected
        finally:
            reopened.close()

    def test_failover_exhaustion_falls_back_to_restart(self, tmp_path):
        # one follower, consumed by the first failover: the second kill
        # has nobody to promote, so the engine restarts the primary
        # from its (promoted) WAL and retries — still complete, and the
        # epoch does not move because no promotion happened
        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        try:
            sharded.kill_worker(0)
            first = sharded.query(rng.normal(size=LENGTH), k=3)
            assert first.complete
            assert sharded.manifest["epochs"][0] == 1
            sharded.kill_worker(0)
            second = sharded.query(rng.normal(size=LENGTH), k=3)
            assert second.complete
            assert second.skipped_shards == []
            assert sharded.manifest["epochs"][0] == 1
        finally:
            sharded.close()

    def test_failovers_counted(self, tmp_path):
        from repro.obs.metrics import get_registry

        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            failovers = get_registry().counter("sts3_failovers_total")
            before = failovers.value(shard="0")
            sharded.kill_worker(0)
            sharded.query(rng.normal(size=LENGTH), k=1)
            assert failovers.value(shard="0") == before + 1
        finally:
            sharded.close()


class TestFencing:
    def test_stale_epoch_ack_rejected(self, tmp_path):
        # simulate a zombie: the manifest says a newer primary exists,
        # so the still-draining old primary's ack must not be believed
        from repro.obs.metrics import get_registry

        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        try:
            fenced = get_registry().counter("sts3_fenced_replies_total")
            report = sharded.insert(rng.normal(size=LENGTH))
            shard_id = sharded.ring.owner(sharded._next_id)
            sharded.manifest["epochs"][shard_id] += 1
            with pytest.raises(ShardError, match="stale fencing epoch"):
                sharded.insert(rng.normal(size=LENGTH))
            assert fenced.value(shard=str(shard_id)) >= 1
            del report
        finally:
            sharded.close()

    def test_promoted_primary_acks_new_epoch(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            sharded.kill_worker(0)
            sharded.query(rng.normal(size=LENGTH), k=1)
            assert sharded.manifest["epochs"][0] == 1
            # writes against the promoted follower pass the epoch check
            for _ in range(4):
                sharded.insert(rng.normal(size=LENGTH))
            assert len(sharded) == 64
        finally:
            sharded.close()


class TestFaultDrills:
    def test_ship_partition_fault_skips_round_then_heals(self, tmp_path):
        from repro import faults
        from repro.faults import Fault, FaultPlan
        from repro.obs.metrics import get_registry

        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        try:
            failures = get_registry().counter(
                "sts3_replication_ship_failures_total"
            )
            plan = FaultPlan(
                [Fault("replication.ship", "crash", hit=1, repeat=True)], seed=3
            )
            with faults.inject(plan):
                report = sharded.insert(rng.normal(size=LENGTH))
            shard_id = report["shard"]
            assert failures.value(
                shard=str(shard_id), replica="0", kind="partition"
            ) >= 1
            assert shard_lag(sharded, shard_id) != [0]
            sharded.ship_replication()  # plan gone: the partition healed
            assert shard_lag(sharded, shard_id) == [0]
        finally:
            sharded.close()

    def test_apply_crash_kills_follower_then_rebootstraps(self, tmp_path):
        from repro import faults
        from repro.faults import Fault, FaultPlan
        from repro.obs.metrics import get_registry

        # followers fork with the installed plan, so the first shipped
        # batch kills them mid-apply; the supervisor reaps + respawns
        rng = np.random.default_rng(7)
        series = make_series(rng, 60)
        plan = FaultPlan([Fault("replication.apply", "crash", hit=1)], seed=1)
        with faults.inject(plan):
            sharded = ShardedDatabase.build(
                series, 2, tmp_path / "shards",
                sigma=SIGMA, epsilon=EPSILON, normalize=False, replicas=1,
            )
        try:
            failures = get_registry().counter(
                "sts3_replication_ship_failures_total"
            )
            probe = rng.normal(size=LENGTH) * 8.0
            report = sharded.insert(probe)  # ship -> follower dies -> respawn
            shard_id = report["shard"]
            assert failures.value(
                shard=str(shard_id), replica="0", kind="rpc"
            ) >= 1
            # respawns forked while the plan was installed die once more
            # on their first apply; a bounded number of rounds drains
            for _ in range(4):
                sharded.ship_replication()
                if shard_lag(sharded, shard_id) == [0]:
                    break
            assert shard_lag(sharded, shard_id) == [0]
            answers = follower_answers(sharded, [probe], k=1)
            [neighbors] = answers[shard_id, 0]
            assert neighbors[0] == (report["id"], (1.0).hex())
        finally:
            sharded.close()

    def test_aborted_promotion_falls_back_to_restart(self, tmp_path):
        from repro import faults
        from repro.faults import Fault, FaultPlan

        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        try:
            sharded.kill_worker(0)
            plan = FaultPlan([Fault("replication.promote", "crash", hit=1)], seed=2)
            with faults.inject(plan):
                healedish = sharded.query(rng.normal(size=LENGTH), k=3)
            # promotion aborted: the engine restarted from the archive
            # instead, so the answer is still complete and no epoch moved
            assert healedish.complete
            assert sharded.manifest["epochs"][0] == 0
        finally:
            sharded.close()


class TestFollowerMode:
    def test_follower_database_rejects_direct_writes(self):
        rng = np.random.default_rng(5)
        db = STS3Database(
            make_series(rng, 8), sigma=SIGMA, epsilon=EPSILON, normalize=False
        )
        try:
            db.set_follower(True)
            with pytest.raises(FollowerWriteError):
                db.insert(rng.normal(size=LENGTH))
            db.set_follower(False)
            db.insert(rng.normal(size=LENGTH))
            assert len(db) == 9
        finally:
            db.close()


class TestHygieneAndTooling:
    def test_reap_discards_replica_metric_labels(self, tmp_path):
        from repro.obs.metrics import get_registry

        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        try:
            sharded.insert(rng.normal(size=LENGTH))
            assert "sts3_replication_lag_records" in get_registry().to_prometheus()
            sharded._replicas.reap(0, 0)
            text = get_registry().to_prometheus()
            for line in text.splitlines():
                # the gauges forget the dead follower; counters are
                # history and keep their labels
                if line.startswith("sts3_replication_lag_"):
                    assert not (
                        'shard="0"' in line and 'replica="0"' in line
                    ), line
        finally:
            sharded.close()

    def test_check_wal_compare_accepts_real_mirror(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        directory = sharded.directory
        try:
            for _ in range(4):
                sharded.insert(rng.normal(size=LENGTH))
            primary = sharded.shard_wal_dir(0)
            sharded.ship_replication()
        finally:
            sharded.close()
        mirror = directory / replica_mirror_name(0, 0)
        tool = Path(__file__).resolve().parents[2] / "tools" / "check_wal.py"
        proc = subprocess.run(
            [sys.executable, str(tool), "--compare", str(primary), str(mirror)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 problems" in proc.stdout

    def test_replica_status_cli_renders_offline(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60, replicas=1)
        directory = sharded.directory
        try:
            sharded.insert(rng.normal(size=LENGTH))
        finally:
            sharded.close()
        from repro.cli import main

        assert main(["replica-status", str(directory)]) == 0

    def test_status_reports_replication(self, tmp_path):
        _, sharded, _ = build_pair(tmp_path, n_series=60)
        try:
            status = sharded.status()
            assert status["replicas"] == 2
            assert status["epochs"] == [0, 0]
            assert len(status["replication"]) == 2
            health = sharded.maintenance_status()
            assert health["replicas"] == 2
            assert health["replicas_live"] == 4
        finally:
            sharded.close()

    def test_manifest_records_replication_fields(self, tmp_path):
        _, sharded, _ = build_pair(tmp_path, n_series=60, replicas=1)
        directory = sharded.directory
        sharded.close()
        manifest = json.loads((directory / "shard-manifest.json").read_text())
        assert manifest["replicas"] == 1
        assert manifest["epochs"] == [0, 0]
        assert manifest["wal_dirs"] == [None, None]
