"""Hypothesis stateful drill of the replicated sharded engine.

The rule machine interleaves acked inserts, shipping rounds, network
partitions (and their heals), checkpoints, primary SIGKILLs, and
manual promotions, and checks after every step that

- no acked write is ever lost: every series the engine acknowledged
  is findable under its global id with similarity 1.0,
- every caught-up follower answers bit-identically to its primary, so
  a promotion can never change an answer,
- the id space never tears: ``len(db)`` equals the model's count.

This hunts the interleavings the example-based drills in
``test_replication.py`` can't reach: a partition healed across a
checkpoint, a promotion racing a stale follower, a kill directly
after a partition.  Process lifecycles make steps expensive, so the
machine runs few but deep examples.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.shard import ShardedDatabase, ShardError

from .test_replication import follower_answers

LENGTH = 24
SHARDS = 2
REPLICAS = 1


def _series(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=LENGTH)


class ReplicationMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**20))
    def build(self, seed):
        self.seed = seed
        import tempfile
        from pathlib import Path

        self.dir = Path(tempfile.mkdtemp(prefix="sts3-repl-"))
        base = [_series(seed + i) for i in range(24)]
        self.db = ShardedDatabase.build(
            base, SHARDS, self.dir / "shards",
            sigma=2, epsilon=0.5, normalize=False, replicas=REPLICAS,
        )
        #: every acked write: global id -> the exact array acked
        self.model = {i: s for i, s in enumerate(base)}

    # -- writes ----------------------------------------------------------

    @rule(offset=st.integers(0, 1000))
    def insert_acked(self, offset):
        series = _series(self.seed + 10_000 + offset)
        for _ in range(3):
            try:
                report = self.db.insert(series)
                break
            except ShardError:
                continue  # not acked; the client retries
        else:
            return  # never acked: the model must not see it either
        self.model[report["id"]] = series

    @rule()
    def checkpoint(self):
        self.db.save()

    # -- replication control ----------------------------------------------

    @rule()
    def ship(self):
        self.db.ship_replication()

    @rule(shard=st.integers(0, SHARDS - 1), flag=st.booleans())
    def partition(self, shard, flag):
        self.db._replicas.set_partitioned(shard, 0, flag)

    @rule(shard=st.integers(0, SHARDS - 1))
    def kill_primary(self, shard):
        self.db.kill_worker(shard)
        # the next read heals (failover when a follower is promotable,
        # restart-from-WAL otherwise); either way it must stay complete
        result = self.db.query(_series(self.seed), k=1)
        assert result.complete
        assert result.skipped_shards == []

    @rule(shard=st.integers(0, SHARDS - 1))
    def promote_manually(self, shard):
        self.db._replicas.set_partitioned(shard, 0, False)
        try:
            ready = self.db.promote(shard)
        except ShardError:
            return  # no promotable follower left for this shard
        assert ready["promoted"]

    # -- invariants --------------------------------------------------------

    @invariant()
    def no_acked_write_lost(self):
        assert len(self.db) == len(self.model)

    @rule(offset=st.integers(0, 1000))
    def acked_write_findable(self, offset):
        ids = sorted(self.model)
        series_id = ids[offset % len(ids)]
        result = self.db.query(self.model[series_id], k=1)
        assert result.complete
        assert result.neighbors[0].index == series_id
        assert float(result.neighbors[0].similarity) == 1.0

    @rule(offset=st.integers(0, 1000), k=st.integers(1, 5))
    def followers_match_primary(self, offset, k):
        # the newest acked write is the one a stale follower would miss
        queries = [
            self.model[max(self.model)],
            _series(self.seed + 30_000 + offset),
        ]
        follower_answers(self.db, queries, k)

    def teardown(self):
        import shutil

        if hasattr(self, "db"):
            self.db.close()
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)


TestReplicationStateful = ReplicationMachine.TestCase
TestReplicationStateful.settings = settings(
    max_examples=6, stateful_step_count=8, deadline=None
)
