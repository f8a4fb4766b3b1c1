"""The sharded engine answers exactly like the single-process engine.

docs/sharding.md's three contracts, exercised with real worker
processes on deliberately small corpora (two shards, short series —
these tests fork and recover workers, so the workload is sized for the
lifecycle, not for throughput):

1. **bit-identity** — scatter-gather top-k equals the single-process
   top-k with similarities compared as ``float.hex``,
2. **durability** — an acknowledged insert survives SIGKILL of its
   owning worker and a close/reopen without checkpoint,
3. **degradation** — a query during an outage names the missing shard
   instead of raising, and the next query heals,
4. **pairing** — a reply is only ever matched with the request that
   caused it: a rejected query, an error reply or a garbled frame never
   shifts later answers onto earlier requests.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core import worker
from repro.core.shard import HashRing, ShardedDatabase, ShardError
from repro.data.workloads import ecg_workload
from repro.exceptions import ParameterError, ReproError
from repro.obs import get_registry

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


def build_pair(tmp_path, seed=11, n_series=120, shards=2):
    """The same corpus as a single-process database and a sharded one."""
    rng = np.random.default_rng(seed)
    series = make_series(rng, n_series)
    single = STS3Database(series, sigma=SIGMA, epsilon=EPSILON, normalize=False)
    sharded = ShardedDatabase.build(
        series, shards, tmp_path / "shards",
        sigma=SIGMA, epsilon=EPSILON, normalize=False,
    )
    return single, sharded, rng


class TestParity:
    def test_batch_answers_bit_identical(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path)
        try:
            queries = make_series(rng, 8)
            expected = single.query_batch(queries, k=7)
            got = sharded.query_batch(queries, k=7)
            assert hex_answers(got) == hex_answers(expected)
            assert all(r.complete for r in got)
            assert all(r.skipped_shards == [] for r in got)
        finally:
            single.close()
            sharded.close()

    @pytest.mark.parametrize("length", [128, 512, 2048])
    def test_default_method_is_exact_at_every_length(self, tmp_path, length):
        workload = ecg_workload(80, 4, length, seed=3)
        series, queries = workload.database, workload.queries
        single = STS3Database(series, sigma=3, epsilon=0.58)
        sharded = ShardedDatabase.build(
            series, 2, tmp_path / "shards", sigma=3, epsilon=0.58
        )
        try:
            expected = hex_answers(single.query_batch(queries, k=10))
            assert hex_answers(sharded.query_batch(queries, k=10)) == expected
            assert expected == hex_answers(
                single.query_batch(queries, k=10, method="naive")
            )
        finally:
            single.close()
            sharded.close()

    def test_scalar_query_matches_batch(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path, n_series=80)
        try:
            query = rng.normal(size=LENGTH)
            assert hex_answers([sharded.query(query, k=5)]) == hex_answers(
                [single.query(query, k=5)]
            )
        finally:
            single.close()
            sharded.close()

    def test_scalar_query_matches_naive_and_its_batch_slot(self, tmp_path):
        # A scalar query is a width-1 batch in each worker and takes a
        # different kernel there (popcount sweep) than the same query
        # inside a width-8 batch (GEMM on this dense-overlap shape);
        # both must equal the naive scan over the whole collection.
        workload = ecg_workload(400, 8, 128, seed=9)
        series, queries = workload.database, workload.queries
        single = STS3Database(series, sigma=3, epsilon=0.58)
        sharded = ShardedDatabase.build(
            series, 2, tmp_path / "shards", sigma=3, epsilon=0.58
        )
        try:
            batch = hex_answers(sharded.query_batch(queries, k=10))
            for slot in (0, 5):
                scalar = hex_answers([sharded.query(queries[slot], k=10)])
                assert scalar == hex_answers(
                    [single.query(queries[slot], k=10, method="naive")]
                )
                assert scalar == [batch[slot]]
        finally:
            single.close()
            sharded.close()

    def test_merged_stats_accumulate_all_shards(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path, n_series=80)
        try:
            [result] = sharded.query_batch([rng.normal(size=LENGTH)], k=3)
            # Every stored series is someone's candidate in the exact
            # path, so the summed counters must cover the whole corpus.
            assert result.stats.candidates > 0
            assert len(sharded) == 80
        finally:
            single.close()
            sharded.close()

    def test_k_capped_by_total_series_not_shard_size(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            query = rng.normal(size=LENGTH)
            got = sharded.query(query, k=60)
            expected = single.query(query, k=60)
            assert hex_answers([got]) == hex_answers([expected])
            assert len(got.neighbors) == 60  # more than any one shard owns
        finally:
            single.close()
            sharded.close()

    def test_empty_batch_returns_empty(self, tmp_path):
        _, sharded, _ = build_pair(tmp_path, n_series=60)
        try:
            assert sharded.query_batch([], k=3) == []
        finally:
            sharded.close()

    def test_unknown_method_rejected(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            with pytest.raises(ParameterError):
                sharded.query(rng.normal(size=LENGTH), method="nope")
        finally:
            sharded.close()

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, tmp_path, k):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            with pytest.raises(ParameterError):
                sharded.query(rng.normal(size=LENGTH), k=k)
        finally:
            sharded.close()


class TestInsertRouting:
    def test_report_names_the_ring_owner(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            ring = HashRing(
                sharded.n_shards,
                sharded.manifest["hash_seed"],
                sharded.manifest["vnodes"],
            )
            before = len(sharded)
            for offset in range(4):
                report = sharded.insert(rng.normal(size=LENGTH))
                assert report["id"] == before + offset
                assert report["shard"] == ring.owner(report["id"])
                assert report["path"] in ("buffered", "direct")
                assert report["n_series"] == before + offset + 1
        finally:
            sharded.close()

    def test_inserted_series_is_findable_under_its_global_id(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            probe = rng.normal(size=LENGTH) * 8.0  # out on its own
            report = sharded.insert(probe)
            result = sharded.query(probe, k=1)
            assert result.neighbors[0].index == report["id"]
        finally:
            sharded.close()


class TestPersistence:
    def test_save_reopen_round_trip(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path, n_series=80)
        directory = sharded.directory
        queries = make_series(rng, 4)
        try:
            expected = hex_answers(single.query_batch(queries, k=5))
        finally:
            single.close()
        sharded.save()
        sharded.close()
        reopened = ShardedDatabase.open(directory)
        try:
            assert len(reopened) == 80
            assert hex_answers(reopened.query_batch(queries, k=5)) == expected
        finally:
            reopened.close()

    def test_buffered_insert_survives_reopen_without_checkpoint(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        directory = sharded.directory
        probe = rng.normal(size=LENGTH) * 8.0
        try:
            report = sharded.insert(probe)
            assert report["path"] in ("buffered", "direct")
        finally:
            sharded.close()  # no save(): the WAL is the only record
        reopened = ShardedDatabase.open(directory)
        try:
            assert len(reopened) == 61
            result = reopened.query(probe, k=1)
            assert result.neighbors[0].index == report["id"]
        finally:
            reopened.close()

    def test_open_rejects_directory_without_manifest(self, tmp_path):
        with pytest.raises(ShardError):
            ShardedDatabase.open(tmp_path)

    def test_status_covers_every_shard(self, tmp_path):
        _, sharded, _ = build_pair(tmp_path, n_series=60)
        try:
            status = sharded.status()
            assert status["shards"] == 2
            assert status["workers_live"] == 2
            assert len(status["per_shard"]) == 2
            assert all(entry["alive"] for entry in status["per_shard"])
            assert (
                sum(e["n_series"] for e in status["per_shard"])
                == status["series_total"]
                == 60
            )
            assert sharded.verify_integrity() == []
        finally:
            sharded.close()


class TestFaults:
    def test_kill_degrade_then_heal(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            probe = rng.normal(size=LENGTH) * 8.0
            report = sharded.insert(probe)
            sharded.kill_worker(report["shard"])
            degraded = sharded.query(probe, k=1)
            assert not degraded.complete
            assert degraded.skipped_shards == [f"shard-{report['shard']}"]
            assert "shard" in (degraded.degraded_reason or "")
            # the dead worker was reaped during the degraded scatter;
            # the next query restarts it (WAL replay included)
            healed = sharded.query(probe, k=1)
            assert healed.complete
            assert healed.skipped_shards == []
            assert healed.neighbors[0].index == report["id"]
        finally:
            sharded.close()

    def test_fault_point_crashes_worker_mid_request(self, tmp_path):
        # workers fork with the installed plan, so a crash at the
        # shard.worker.request point kills them on their first request
        from repro import faults
        from repro.faults import Fault, FaultPlan

        rng = np.random.default_rng(3)
        series = make_series(rng, 60)
        plan = FaultPlan([Fault("shard.worker.request", "crash", hit=1)], seed=1)
        with faults.inject(plan):
            sharded = ShardedDatabase.build(
                series, 2, tmp_path / "shards",
                sigma=SIGMA, epsilon=EPSILON, normalize=False,
            )
        try:
            degraded = sharded.query(rng.normal(size=LENGTH), k=3)
            assert not degraded.complete
            assert degraded.skipped_shards == ["shard-0", "shard-1"]
            # restarts fork from the (plan-free) parent: healed
            healed = sharded.query(rng.normal(size=LENGTH), k=3)
            assert healed.complete
            assert len(healed.neighbors) == 3
        finally:
            sharded.close()

    def test_restart_counts_as_worker_failure_metrics(self, tmp_path):
        from repro.obs.metrics import get_registry

        _, sharded, _ = build_pair(tmp_path, n_series=60)
        try:
            restarts = get_registry().counter("sts3_shard_restarts_total")
            before = restarts.value(shard="0")
            sharded.kill_worker(0)
            sharded.query(np.zeros(LENGTH) + 0.5, k=1)
            sharded.query(np.zeros(LENGTH) + 0.5, k=1)
            assert restarts.value(shard="0") >= before + 1
            assert "sts3_shard_restarts_total" in get_registry().to_prometheus()
        finally:
            sharded.close()


class TestReplyPairing:
    """After any failed conversation the engine still answers like one
    that never failed (``single`` — the bit-identity reference)."""

    def test_rejected_query_does_not_poison_later_answers(self, tmp_path):
        single, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            queries = make_series(rng, 3)
            with pytest.raises(ReproError):
                sharded.query(queries[0], k=0)
            got = [sharded.query(q, k=3) for q in queries]
            assert all(r.complete for r in got)
            assert hex_answers(got) == hex_answers(
                [single.query(q, k=3) for q in queries]
            )
        finally:
            single.close()
            sharded.close()

    @pytest.mark.parametrize("bad_shard", [0, 1], ids=["first", "last"])
    def test_error_reply_from_one_shard_leaves_later_answers_intact(
        self, tmp_path, monkeypatch, bad_shard
    ):
        real_handle = worker._Worker.handle

        def handle(self, header, arrays):
            if header.get("k") == 13 and self.options["shard_id"] == bad_shard:
                raise RuntimeError("injected handler failure")
            return real_handle(self, header, arrays)

        # workers fork from this process, patch included
        monkeypatch.setattr(worker._Worker, "handle", handle)
        single, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            queries = make_series(rng, 3)
            with pytest.raises(ShardError, match="injected handler failure"):
                sharded.query(queries[0], k=13)
            got = [sharded.query(q, k=3) for q in queries]
            assert all(r.complete for r in got)
            assert hex_answers(got) == hex_answers(
                [single.query(q, k=3) for q in queries]
            )
        finally:
            single.close()
            sharded.close()

    def test_garbled_reply_degrades_that_shard_then_heals(
        self, tmp_path, monkeypatch
    ):
        real_handle, real_send = worker._Worker.handle, worker.send_frame
        garble = []

        def handle(self, header, arrays):
            if header.get("k") == 13 and self.options["shard_id"] == 1:
                garble.append(True)
            return real_handle(self, header, arrays)

        def send(conn, header, arrays=()):
            if garble:
                conn.send_bytes(b"\xff not a frame")
            else:
                real_send(conn, header, arrays)

        monkeypatch.setattr(worker._Worker, "handle", handle)
        monkeypatch.setattr(worker, "send_frame", send)
        single, sharded, rng = build_pair(tmp_path, n_series=60)
        try:
            queries = make_series(rng, 3)
            degraded = sharded.query(queries[0], k=13)
            assert not degraded.complete
            assert degraded.skipped_shards == ["shard-1"]
            # the lying worker was replaced (a fresh fork, nothing to
            # garble yet): complete answers again, and the right ones
            got = [sharded.query(q, k=3) for q in queries]
            assert all(r.complete for r in got)
            assert hex_answers(got) == hex_answers(
                [single.query(q, k=3) for q in queries]
            )
        finally:
            single.close()
            sharded.close()


class TestBuildValidation:
    def test_empty_collection_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            ShardedDatabase.build(
                [], 2, tmp_path / "s", sigma=SIGMA, epsilon=EPSILON
            )

    def test_too_many_shards_for_corpus_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            ShardedDatabase.build(
                make_series(rng, 2), 16, tmp_path / "s",
                sigma=SIGMA, epsilon=EPSILON, normalize=False,
            )

    def test_build_transforms_nothing_in_the_parent(self, tmp_path):
        """Shard archives hold series and grids only; workers derive sets."""
        transforms = get_registry().counter("sts3_transforms_total")
        contexts = ("build", "buffer", "extend", "compact", "load")
        before = [transforms.value(context=c) for c in contexts]
        sharded = ShardedDatabase.build(
            make_series(np.random.default_rng(5), 60), 2, tmp_path / "shards",
            sigma=SIGMA, epsilon=EPSILON, normalize=False,
        )
        try:
            assert [transforms.value(context=c) for c in contexts] == before
        finally:
            sharded.close()

    def test_from_database_matches_source_answers(self, tmp_path):
        rng = np.random.default_rng(23)
        series = make_series(rng, 80)
        queries = make_series(rng, 4)
        source = STS3Database(
            series, sigma=SIGMA, epsilon=EPSILON, normalize=False
        )
        try:
            expected = hex_answers(source.query_batch(queries, k=5))
            sharded = ShardedDatabase.from_database(
                source, 2, tmp_path / "shards"
            )
        finally:
            source.close()
        try:
            assert hex_answers(sharded.query_batch(queries, k=5)) == expected
        finally:
            sharded.close()

    def test_closed_database_rejects_operations(self, tmp_path):
        _, sharded, rng = build_pair(tmp_path, n_series=60)
        sharded.close()
        sharded.close()  # idempotent
        with pytest.raises(ShardError):
            sharded.query(rng.normal(size=LENGTH))
        with pytest.raises(ShardError):
            sharded.insert(rng.normal(size=LENGTH))
