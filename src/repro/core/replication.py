"""WAL-shipping replication for the sharded engine (docs/replication.md).

PR 9's sharded engine scales queries out but keeps exactly one copy of
every shard: a worker death costs that shard's partition until it
restarts and recovers *on the same archive*.  This module adds the
availability half — a :class:`ReplicaSet` pairs each primary shard
with N follower processes kept current by **WAL shipping**.  This is
the supervisor's side; the follower's side is the follower role of the
one worker loop in :mod:`repro.core.worker`:

- The supervisor (the parent process) holds one :class:`~repro.core.
  wal.WalTail` per follower over the primary's on-disk WAL directory.
  After every acknowledged write it polls the tail and ships the new
  CRC32-framed records — the exact bytes the primary fsynced — over
  the same pipe RPC the shards speak (``ship`` frames: a uint8 blob
  plus ``first_seq``/``last_seq``/``count``).
- A follower appends the shipped frames to its own **mirror** WAL
  directory (fsynced *before* applying — the mirror is the follower's
  durability), applies the records through
  :func:`~repro.core.persistence.apply_wal_records` (the same code
  path crash recovery uses, so follower state is bit-identical to a
  recovered primary), advances its ``applied_seq`` watermark, and
  persists the watermark in a sidecar
  (:func:`~repro.core.wal.write_applied_seq`).
- On primary death the supervisor **promotes** the freshest follower:
  the remaining intact frames on the dead primary's disk are shipped
  (an acknowledged write is fsynced, hence intact, hence shipped — no
  acked write is ever lost), the shard's fencing epoch is bumped in
  the manifest, and a ``promote`` frame flips the follower into a
  journaling primary (its mirror becomes the shard's live WAL).

Fencing: every worker and follower echoes its ``epoch`` in every
reply; the supervisor rejects replies carrying a stale epoch, so a
zombie primary — one that was presumed dead, got replaced, but is
still draining its pipe — can never have a late ack believed.

Fault points (deterministic drills, :mod:`repro.faults`):
``replication.ship`` fires supervisor-side before each ship (a crash
kind simulates a network partition to that follower; slow delays on
the virtual clock), ``replication.apply`` fires in the follower before
applying (crash = follower death mid-apply), and
``replication.promote`` fires before a promotion is attempted (crash =
promotion aborted, the supervisor falls back to local restart).
"""

from __future__ import annotations

import logging
import time
from pathlib import Path

import numpy as np

from .. import faults
from ..obs import get_registry, span
from ..serve.protocol import OP_PROMOTE, OP_SHIP
from .rpc import RpcError
from .wal import WalGapError, WalTail
from .worker import WorkerError, reap_worker

__all__ = [
    "ReplicaHandle",
    "ReplicaSet",
    "replica_mirror_name",
]

logger = logging.getLogger(__name__)


def replica_mirror_name(shard_id: int, replica_id: int) -> str:
    """Mirror WAL directory name for one follower of one shard."""
    return f"shard-{shard_id:02d}.replica-{replica_id}.wal"


# -- the supervisor side -------------------------------------------------


class ReplicaHandle:
    """Supervisor-side view of one live follower."""

    __slots__ = (
        "shard_id",
        "replica_id",
        "process",
        "conn",
        "applied_seq",
        "n_series",
        "tail",
        "mirror",
        "partitioned",
        "caught_up_at",
    )

    def __init__(self, shard_id, replica_id, process, conn, applied_seq, n_series, tail, mirror):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.process = process
        self.conn = conn
        self.applied_seq = int(applied_seq)
        self.n_series = int(n_series)
        self.tail = tail
        self.mirror = mirror
        #: test/drill hook — a partitioned follower receives no ships
        #: (and its lag grows) until the partition heals.
        self.partitioned = False
        self.caught_up_at = time.monotonic()


class ReplicaSet:
    """All followers of one :class:`~repro.core.shard.ShardedDatabase`.

    Owned by the engine and called under its lock; never touches the
    primary worker handles.  ``handles[shard_id][replica_id]`` is a
    :class:`ReplicaHandle` or None (dead / failed to spawn / promoted
    away).
    """

    def __init__(self, engine, n_replicas: int):
        self.engine = engine
        self.n_replicas = int(n_replicas)
        self.handles: list[list[ReplicaHandle | None]] = [
            [None] * self.n_replicas for _ in range(engine.n_shards)
        ]
        registry = get_registry()
        self._g_lag_records = registry.gauge(
            "sts3_replication_lag_records",
            "records the follower is behind its primary",
        )
        self._g_lag_seconds = registry.gauge(
            "sts3_replication_lag_seconds",
            "seconds since the follower was last caught up",
        )
        self._c_shipped = registry.counter(
            "sts3_replication_shipped_records_total",
            "WAL records shipped to followers",
        )
        self._c_ship_failures = registry.counter(
            "sts3_replication_ship_failures_total",
            "failed ship attempts, by shard, replica, and kind",
        )
        self._g_live = registry.gauge(
            "sts3_replica_workers_live", "follower processes currently serving"
        )

    # -- lifecycle -------------------------------------------------------

    def start_all(self) -> None:
        for shard_id in range(self.engine.n_shards):
            for replica_id in range(self.n_replicas):
                self.spawn(shard_id, replica_id)

    def mirror_dir(self, shard_id: int, replica_id: int) -> Path:
        return self.engine.directory / replica_mirror_name(shard_id, replica_id)

    def spawn(self, shard_id: int, replica_id: int) -> ReplicaHandle | None:
        """Start (or re-bootstrap) one follower; None when it fails."""
        engine = self.engine
        archive = engine.directory / engine.manifest["files"][shard_id]
        mirror = self.mirror_dir(shard_id, replica_id)
        options = {
            "shard_id": shard_id,
            "replica_id": replica_id,
            "archive": str(archive),
            "mirror": str(mirror),
            "epoch": int(engine.manifest["epochs"][shard_id]),
            "fsync_batch": engine.fsync_batch,
        }
        try:
            process, conn, ready = engine._spawn(options)
        except WorkerError as exc:
            logger.warning("%s", exc)
            return None
        applied = int(ready["applied_seq"])
        handle = ReplicaHandle(
            shard_id,
            replica_id,
            process,
            conn,
            applied,
            int(ready["n_series"]),
            WalTail(self.engine.shard_wal_dir(shard_id), from_seq=applied),
            mirror,
        )
        self.handles[shard_id][replica_id] = handle
        self._set_live_gauge()
        return handle

    def reap(self, shard_id: int, replica_id: int) -> None:
        handle = self.handles[shard_id][replica_id]
        if handle is None:
            return
        self.handles[shard_id][replica_id] = None
        reap_worker(handle.process, handle.conn)
        self._discard_handle_labels(shard_id, replica_id)
        self._set_live_gauge()

    def detach(self, shard_id: int, replica_id: int) -> None:
        """Forget a follower without killing it (it was promoted)."""
        self.handles[shard_id][replica_id] = None
        self._discard_handle_labels(shard_id, replica_id)
        self._set_live_gauge()

    def close(self) -> None:
        for shard_id in range(self.engine.n_shards):
            for replica_id in range(self.n_replicas):
                handle = self.handles[shard_id][replica_id]
                if handle is not None:
                    self.engine._shutdown(handle)
                    self.reap(shard_id, replica_id)

    def _discard_handle_labels(self, shard_id: int, replica_id: int) -> None:
        # membership changed: retire this follower's *gauge* series so
        # dashboards stop showing a ghost watermark (the PR 8
        # discard_labels hygiene, extended to replica labels).  Counters
        # (shipped/failures) keep their labels — they are history, and
        # wiping them would erase the very failures that explain a reap.
        get_registry().discard_labels(
            name_prefix="sts3_replication_lag_",
            shard=str(shard_id),
            replica=str(replica_id),
        )
        if not self.live(shard_id):
            # the BLAS gauge is per shard and role, not per follower
            get_registry().discard_labels(
                name_prefix="sts3_shard_blas_threads",
                shard=str(shard_id),
                role="follower",
            )

    def _set_live_gauge(self) -> None:
        self._g_live.set(
            sum(1 for row in self.handles for h in row if h is not None)
        )

    # -- shipping --------------------------------------------------------

    def live(self, shard_id: int) -> list[ReplicaHandle]:
        return [h for h in self.handles[shard_id] if h is not None]

    def ship(self, shard_id: int) -> None:
        """Ship new primary WAL frames to every reachable follower."""
        for handle in self.live(shard_id):
            if handle.partitioned:
                self._observe_lag(handle)
                continue
            try:
                faults.fault_point("replication.ship")
            except faults.SimulatedCrash:
                # an injected partition: this follower misses the round
                self._c_ship_failures.inc(
                    shard=str(shard_id), replica=str(handle.replica_id),
                    kind="partition",
                )
                self._observe_lag(handle)
                continue
            self.ship_one(handle)

    def ship_all(self) -> None:
        for shard_id in range(self.engine.n_shards):
            self.ship(shard_id)

    def _rebootstrap(self, handle: ReplicaHandle, kind: str) -> bool:
        """Replace a follower that cannot be caught up by shipping."""
        self._c_ship_failures.inc(
            shard=str(handle.shard_id), replica=str(handle.replica_id),
            kind=kind,
        )
        replica_id = handle.replica_id
        self.reap(handle.shard_id, replica_id)
        return self.spawn(handle.shard_id, replica_id) is not None

    def ship_one(self, handle: ReplicaHandle) -> bool:
        """Poll this follower's tail and ship the batch; False on failure."""
        try:
            batch = handle.tail.poll()
        except WalGapError:
            # the primary checkpointed past this follower's watermark;
            # catch-up by shipping is impossible — re-bootstrap from
            # the (necessarily newer) archive
            return self._rebootstrap(handle, "gap")
        if batch.count == 0:
            if handle.applied_seq < int(
                self.engine._primary_ckpt[handle.shard_id]
            ):
                # nothing to tail *and* the follower sits behind the
                # primary's checkpoint: the frames it needs were retired
                # and the empty log will never surface them — the gap an
                # idle WalTail cannot see
                return self._rebootstrap(handle, "gap")
            self._observe_lag(handle)
            return True
        with span(
            "replication.ship",
            shard=handle.shard_id,
            replica=handle.replica_id,
            records=batch.count,
        ):
            try:
                reply = self.engine._rpc(
                    handle.conn,
                    {
                        "op": OP_SHIP,
                        "first_seq": batch.first_seq,
                        "last_seq": batch.last_seq,
                        "count": batch.count,
                    },
                    [np.frombuffer(batch.blob, dtype=np.uint8)],
                )
            except RpcError:
                self._rebootstrap(handle, "rpc")
                return False
        if reply.get("op") != "ack":
            # e.g. a gap the tail missed; re-bootstrap cleanly
            self._rebootstrap(handle, "apply")
            return False
        handle.applied_seq = int(reply["applied_seq"])
        handle.n_series = int(reply["n_series"])
        self._c_shipped.inc(
            batch.count,
            shard=str(handle.shard_id),
            replica=str(handle.replica_id),
        )
        self._observe_lag(handle)
        return True

    # -- lag -------------------------------------------------------------

    def lag_records(self, handle: ReplicaHandle) -> int:
        primary = int(self.engine._primary_seq[handle.shard_id])
        return max(0, primary - handle.applied_seq)

    def _observe_lag(self, handle: ReplicaHandle) -> None:
        lag = self.lag_records(handle)
        now = time.monotonic()
        if lag == 0:
            handle.caught_up_at = now
        labels = {
            "shard": str(handle.shard_id),
            "replica": str(handle.replica_id),
        }
        self._g_lag_records.set(lag, **labels)
        self._g_lag_seconds.set(
            0.0 if lag == 0 else now - handle.caught_up_at, **labels
        )

    def freshest(self, shard_id: int) -> ReplicaHandle | None:
        """The promotion candidate: highest watermark wins, id breaks ties."""
        best: ReplicaHandle | None = None
        for handle in self.live(shard_id):
            if best is None or handle.applied_seq > best.applied_seq:
                best = handle
        return best

    def set_partitioned(self, shard_id: int, replica_id: int, flag: bool) -> None:
        """Drill hook: cut (or heal) the link to one follower."""
        handle = self.handles[shard_id][replica_id]
        if handle is not None:
            handle.partitioned = bool(flag)

    # -- promotion -------------------------------------------------------

    def promote(self, shard_id: int, handle: ReplicaHandle, epoch: int) -> dict | None:
        """Catch this follower up from disk, then flip it into a primary.

        Called with the fencing epoch already bumped and persisted.
        The final catch-up reads the dead primary's WAL directly — an
        acknowledged write was fsynced before its ack, so its frame is
        intact on disk and this ship delivers it (the zero-acked-loss
        argument).  Returns the promote ack (new primary status) or
        None when promotion failed; the follower is reaped on failure.
        """
        try:
            if not self.ship_one(handle):
                return None
            if self.handles[shard_id][handle.replica_id] is not handle:
                return None  # ship_one re-bootstrapped it; not current
            reply = self.engine._rpc(
                handle.conn, {"op": OP_PROMOTE, "epoch": int(epoch)}
            )
        except (RpcError, WalGapError):
            self.reap(shard_id, handle.replica_id)
            return None
        if reply.get("op") != "ack" or not reply.get("promoted"):
            self.reap(shard_id, handle.replica_id)
            return None
        return reply

    # -- introspection ---------------------------------------------------

    def status(self, shard_id: int) -> list[dict]:
        entries = []
        for replica_id in range(self.n_replicas):
            handle = self.handles[shard_id][replica_id]
            entry = {
                "replica": replica_id,
                "alive": handle is not None,
                "mirror": replica_mirror_name(shard_id, replica_id),
            }
            if handle is not None:
                lag = self.lag_records(handle)
                entry.update(
                    applied_seq=handle.applied_seq,
                    primary_seq=int(self.engine._primary_seq[shard_id]),
                    lag_records=lag,
                    lag_seconds=(
                        0.0
                        if lag == 0
                        else time.monotonic() - handle.caught_up_at
                    ),
                    partitioned=handle.partitioned,
                    n_series=handle.n_series,
                )
            entries.append(entry)
        return entries
