"""Sharded multi-process execution engine (docs/sharding.md).

:class:`ShardedDatabase` partitions a series collection across N
persistent worker processes by consistent hashing on series id.  Each
worker owns a shard-local :class:`~repro.core.database.STS3Database`
opened with ``mmap=True`` (cold start is a manifest parse; payload
bytes fault in on first touch and are page-cache shared with every
other process mapping the same archive).  The parent holds no series
at all — it routes, scatters, and merges.

The design lifts the planner's per-segment contract one level, exactly
as ROADMAP item 1 describes:

- **Scatter**: every query goes to all shards (data is partitioned,
  queries are not) over the pipe RPC of :mod:`repro.core.rpc`, which
  reuses the serving layer's frame format — queries travel as raw
  float64 blobs, results as repr-round-trip JSON.
- **Gather**: per-shard top-k answers merge through the same
  deterministic :class:`~repro.core.heap.KnnHeap` ``(similarity desc,
  id asc)`` ordering the planner uses across segments, so on a static
  corpus the sharded engine is **bit-identical** to the single-process
  engine: all shards share one base grid (computed over the full
  collection, exactly as ``Segment.build`` would), disjoint partitions
  searched exactly and merged deterministically are the global top-k.
- **Inserts** route by hash on their assigned global id and ride the
  owning shard's own WAL; each insert is journaled alongside a
  ``note`` record carrying its global id, which is how a restarted
  worker rebuilds its local→global id table without the parent
  persisting anything per-insert.
- **Failure**: a dead worker surfaces as an RPC EOF/timeout; the query
  *degrades* (``complete=False``, the missing partition named in
  ``skipped_shards``, mirroring the deadline ladder's contract) while
  the engine restarts the worker via
  :func:`~repro.core.persistence.recover_database` — WAL replay means
  no acknowledged write is lost.
- **Cores**: one budget, cores = worker processes × BLAS threads.
  Each primary runs ``available_cpu_count() // n_shards`` (at least 1)
  OpenBLAS threads, each follower one; the parent, which runs no GEMM,
  keeps its own (:mod:`repro.core.executor`).

Archive layout — a directory, not a file::

    <dir>/shard-manifest.json     # shard count, hash seed, params
    <dir>/shard-00.sts3           # standard v4 archive (+ id extras)
    <dir>/shard-00.sts3.wal/      # that shard's WAL generations
    <dir>/shard-01.sts3
    ...

Every ``shard-NN.sts3`` is a plain v4 archive: ``sts3 verify`` /
``sts3 inspect`` work on each shard file unchanged.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import threading
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .. import faults
from ..exceptions import ParameterError, ReproError
from ..obs import get_registry, span
from ..serve.protocol import pack_message
from ..types import as_series, as_series_list
from .executor import available_cpu_count, blas_budget
from .grid import Bound
from .heap import KnnHeap
from .planner import METHODS
from .result import QueryResult, SearchStats
from .rpc import RpcError, WorkerDied, call, call_packed, recv_reply, send_packed
from .segment import grid_for_bound
from .worker import WorkerError, reap_worker, spawn_worker

__all__ = [
    "DEFAULT_HASH_SEED",
    "DEFAULT_VNODES",
    "HashRing",
    "ShardError",
    "ShardedDatabase",
    "shard_manifest_path",
]

MANIFEST_NAME = "shard-manifest.json"
MANIFEST_FORMAT = "sts3-sharded"
#: v2 adds replication state: ``replicas`` (followers per shard),
#: ``epochs`` (per-shard fencing epoch, bumped *before* a promotion is
#: attempted), and ``wal_dirs`` (per-shard live WAL directory name —
#: None means the default ``<file>.wal``; after a failover it names the
#: promoted follower's mirror).  v1 manifests open fine: the fields
#: default on read.
MANIFEST_VERSION = 2

#: seed of the hash ring when none is given ("SW" again, like the
#: protocol port); recorded in the shard manifest so reopening a
#: sharded archive always rebuilds the identical ring.
DEFAULT_HASH_SEED = 0x5753

#: virtual nodes per shard.  64 keeps the worst shard within a few
#: percent of the mean on realistic collection sizes while the ring
#: stays small enough to rebuild in microseconds.
DEFAULT_VNODES = 64

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ShardError(ReproError):
    """A sharded-engine operation failed (routing, worker, manifest)."""


def shard_manifest_path(directory: str | Path) -> Path:
    """The manifest file that marks ``directory`` as a sharded archive."""
    return Path(directory) / MANIFEST_NAME


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer: integer in, well-mixed 64-bit out.

    Pure integer arithmetic — no Python ``hash()`` (salted per process)
    and no floats — so placement is identical across runs, platforms,
    and interpreter versions.  The routing property test pins golden
    values to keep it that way.
    """
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class HashRing:
    """Seeded consistent-hash ring mapping series ids to shards.

    Each shard contributes ``vnodes`` points; a series id hashes to a
    position and is owned by the first ring point clockwise of it.
    Consistent hashing (rather than ``id % n``) keeps placement stable
    under future resharding: growing from N to N+1 shards moves only
    the keys falling into the new shard's arcs.
    """

    def __init__(
        self,
        n_shards: int,
        seed: int = DEFAULT_HASH_SEED,
        vnodes: int = DEFAULT_VNODES,
    ):
        if n_shards < 1:
            raise ParameterError(f"need >= 1 shard, got {n_shards}")
        if vnodes < 1:
            raise ParameterError(f"need >= 1 vnode per shard, got {vnodes}")
        self.n_shards = int(n_shards)
        self.seed = int(seed) & _MASK64
        self.vnodes = int(vnodes)
        self._key_salt = _splitmix64(self.seed ^ 0xC0FFEE)
        points: list[tuple[int, int]] = []
        for shard in range(self.n_shards):
            stream = _splitmix64(self.seed ^ (shard + 1))
            for vnode in range(self.vnodes):
                points.append((_splitmix64(stream + vnode), shard))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [shard for _, shard in points]

    def owner(self, series_id: int) -> int:
        """The shard owning ``series_id`` (deterministic, total)."""
        key = _splitmix64((int(series_id) & _MASK64) ^ self._key_salt)
        slot = bisect_right(self._positions, key) % len(self._owners)
        return self._owners[slot]

    def partition(self, series_ids) -> list[list[int]]:
        """Split ``series_ids`` into per-shard id lists (order kept)."""
        parts: list[list[int]] = [[] for _ in range(self.n_shards)]
        for series_id in series_ids:
            parts[self.owner(series_id)].append(series_id)
        return parts


# -- the parent-side engine ----------------------------------------------


class _WorkerHandle:
    """Parent-side view of one live worker: process + pipe + counters."""

    __slots__ = ("shard_id", "process", "conn", "n_series")

    def __init__(self, shard_id, process, conn, n_series):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.n_series = n_series


class ShardedDatabase:
    """Scatter-gather k-NN over N shard worker processes.

    Construct with :meth:`build` (fresh, from raw series),
    :meth:`from_database` (re-partition an existing single-process
    database), or :meth:`open` (an existing sharded archive
    directory).  The instance is a context manager; :meth:`close`
    shuts the workers down.

    Thread-safe but serialized: one RPC conversation runs at a time
    (the serving layer coalesces concurrent requests into batches
    before they reach the engine, so the lock is not the bottleneck).
    """

    def __init__(
        self,
        directory: str | Path,
        manifest: dict,
        rpc_timeout: float = 30.0,
        fsync_batch: int = 1,
        start: bool = True,
        replicas: int | None = None,
    ):
        self.directory = Path(directory)
        self.manifest = manifest
        self.n_shards = int(manifest["shards"])
        # v1 manifests predate replication: default its fields in one
        # place so every constructor path sees a v2-shaped manifest.
        manifest.setdefault("replicas", 0)
        manifest.setdefault("epochs", [0] * self.n_shards)
        manifest.setdefault("wal_dirs", [None] * self.n_shards)
        self.ring = HashRing(
            self.n_shards, int(manifest["hash_seed"]), int(manifest["vnodes"])
        )
        self.rpc_timeout = float(rpc_timeout)
        #: OpenBLAS threads per primary: its share of the usable cores,
        #: so the primaries' GEMM pools together fill them exactly.
        self._blas_budget = blas_budget(available_cpu_count(), self.n_shards)
        #: default 1 — a sharded insert is acknowledged only once its
        #: WAL records are fsynced, which is what makes the worker-kill
        #: contract ("no acked write lost") unconditional.  Raise it to
        #: trade the per-insert fsync for the single-process engine's
        #: batched-cadence semantics.
        self.fsync_batch = int(fsync_batch)
        #: monotonic-seconds clock for deadline accounting, the same
        #: surface as ``STS3Database.clock``: the serving layer stamps
        #: request arrival with it.
        self.clock = time.monotonic
        self.maintenance = None
        self._workers: list[_WorkerHandle | None] = [None] * self.n_shards
        #: highest WAL seq each primary has acknowledged — the yardstick
        #: follower lag is measured against.
        self._primary_seq: list[int] = [0] * self.n_shards
        #: each primary's checkpoint watermark.  A follower applied
        #: below it can never catch up by shipping (the generations it
        #: needs were retired) — the gap is invisible to an idle WAL
        #: tail, so shipping consults this to force the re-bootstrap.
        self._primary_ckpt: list[int] = [0] * self.n_shards
        self._next_id = 0
        #: request numbers (core/rpc.py): one per call, one per scatter,
        #: echoed by the worker so a reply is only ever paired with the
        #: request that caused it.
        self._reqs = itertools.count(1)
        self._lock = threading.RLock()
        self._closed = False
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # no fork on this platform: its default
            self._ctx = mp.get_context()
        n_replicas = (
            int(manifest["replicas"]) if replicas is None else int(replicas)
        )
        self._replicas = None
        if start:
            failures = []
            for shard_id in range(self.n_shards):
                try:
                    self._spawn_worker(shard_id)
                except ShardError as exc:
                    failures.append(str(exc))
            if failures:
                self.close()
                raise ShardError(
                    "sharded open failed: " + "; ".join(failures)
                )
            if n_replicas > 0:
                from .replication import ReplicaSet

                self._replicas = ReplicaSet(self, n_replicas)
                self._replicas.start_all()

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        series,
        n_shards: int,
        directory: str | Path,
        sigma: float,
        epsilon,
        normalize: bool = True,
        value_padding: float = 0.0,
        buffer_capacity: int = 32,
        default_scale: int = 6,
        default_max_scale: int = 4,
        hash_seed: int = DEFAULT_HASH_SEED,
        vnodes: int = DEFAULT_VNODES,
        prepared: bool = False,
        rpc_timeout: float = 30.0,
        fsync_batch: int = 1,
        replicas: int = 0,
    ) -> "ShardedDatabase":
        """Partition ``series`` into a sharded archive and open it.

        All shards share one **base grid**, computed over the *whole*
        collection exactly as a single-process build would
        (``Bound.of_database`` + the σ/ε grid) — that shared reference
        frame is the bit-identity contract: per-shard similarities are
        computed under the same grid the unsharded engine uses, so the
        gathered top-k matches it bit for bit on the static corpus.

        ``prepared=True`` marks ``series`` as already normalized
        (:meth:`from_database`'s path — z-normalization is not bitwise
        idempotent, so it must never run twice).
        """
        from ..data.normalize import z_normalize
        from .persistence import save_segments

        series = as_series_list(series)
        if not series:
            raise ParameterError("cannot shard an empty collection")
        if normalize and not prepared:
            series = [z_normalize(s) for s in series]
        epsilon = (
            tuple(float(e) for e in epsilon)
            if isinstance(epsilon, (tuple, list))
            else float(epsilon)
        )
        bound = Bound.of_database(series, value_padding=value_padding)
        grid = grid_for_bound(bound, sigma, epsilon)
        ring = HashRing(n_shards, hash_seed, vnodes)
        parts = ring.partition(range(len(series)))
        empty = [i for i, part in enumerate(parts) if not part]
        if empty:
            raise ParameterError(
                f"shards {empty} would own no series ({len(series)} series "
                f"across {n_shards} shards); use fewer shards or more series"
            )
        params = {
            "sigma": float(sigma),
            "epsilon": list(epsilon) if isinstance(epsilon, tuple) else epsilon,
            "epsilon_is_tuple": isinstance(epsilon, tuple),
            "normalize": bool(normalize),
            "value_padding": float(value_padding),
            "buffer_capacity": int(buffer_capacity),
            "default_scale": int(default_scale),
            "default_max_scale": int(default_max_scale),
        }
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # Each shard archive is written straight from its series and the
        # shared grid: archives hold no sets, and every worker derives
        # its own on first touch, so the parent transforms nothing.
        for shard_id, ids in enumerate(parts):
            save_segments(
                directory / cls.shard_file(shard_id),
                [([series[i] for i in ids], grid)],
                {**params, "rebuild_count": 0, "wal_seq": 0},
                extras={"shard": {"stored": list(ids), "buffered": []}},
            )
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "shards": int(n_shards),
            "hash_seed": int(hash_seed),
            "vnodes": int(vnodes),
            "series_total": len(series),
            "next_id": len(series),
            "files": [cls.shard_file(i) for i in range(n_shards)],
            "replicas": int(replicas),
            "epochs": [0] * int(n_shards),
            "wal_dirs": [None] * int(n_shards),
            "params": params,
        }
        cls._write_manifest(directory, manifest)
        return cls(
            directory,
            manifest,
            rpc_timeout=rpc_timeout,
            fsync_batch=fsync_batch,
        )

    @classmethod
    def from_database(
        cls, db, n_shards: int, directory: str | Path, **options
    ) -> "ShardedDatabase":
        """Re-partition an existing single-process database.

        Series come out already prepared (stored series are normalized
        at insert time), so they partition as-is.  Note the shards are
        built under a *fresh* shared base grid over the full collection
        — for a single-segment source database that grid is identical
        to the source's and answers are bit-identical; a multi-segment
        source is re-gridded (the same thing ``compact()`` would do).
        """
        series = db.catalog.all_series() + list(db.buffer.series)
        return cls.build(
            series,
            n_shards,
            directory,
            sigma=db.sigma,
            epsilon=db.epsilon,
            normalize=db.normalize,
            value_padding=db.value_padding,
            buffer_capacity=db.buffer.capacity,
            default_scale=db.default_scale,
            default_max_scale=db.default_max_scale,
            prepared=True,
            **options,
        )

    @classmethod
    def open(
        cls,
        directory: str | Path,
        rpc_timeout: float = 30.0,
        fsync_batch: int = 1,
        replicas: int | None = None,
    ) -> "ShardedDatabase":
        """Open a sharded archive directory: spawn + recover every worker.

        Each worker replays its own WAL tail, so opening after a crash
        *is* recovery — there is no separate recover entry point.
        ``replicas`` overrides the manifest's follower count for this
        open (None keeps the manifest's).
        """
        manifest = cls.read_manifest(directory)
        return cls(
            directory,
            manifest,
            rpc_timeout=rpc_timeout,
            fsync_batch=fsync_batch,
            replicas=replicas,
        )

    @staticmethod
    def shard_file(shard_id: int) -> str:
        return f"shard-{shard_id:02d}.sts3"

    @staticmethod
    def read_manifest(directory: str | Path) -> dict:
        path = shard_manifest_path(directory)
        if not path.exists():
            raise ShardError(f"no shard manifest at {path}")
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ShardError(f"unreadable shard manifest at {path}: {exc}") from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ShardError(f"{path} is not a sharded STS3 archive manifest")
        return manifest

    @staticmethod
    def _write_manifest(directory: Path, manifest: dict) -> None:
        from .persistence import _atomic_write

        data = json.dumps(manifest, indent=2).encode()
        _atomic_write(
            shard_manifest_path(directory),
            lambda fh: fh.write(data),
            "shard-manifest",
        )

    def shard_wal_dir(self, shard_id: int) -> Path:
        """This shard's *live* WAL directory (the one its primary writes).

        The default is the archive-derived ``shard-NN.sts3.wal``; after
        a failover the manifest points it at the promoted follower's
        mirror instead — the mirror *is* the shard's history now.
        """
        name = self.manifest["wal_dirs"][shard_id]
        if name:
            return self.directory / name
        return self.directory / (self.manifest["files"][shard_id] + ".wal")

    # -- worker lifecycle -----------------------------------------------

    def _rpc(self, conn, header: dict, arrays=(), timeout=None) -> dict:
        """One request/reply conversation on ``conn`` (engine lock held);
        returns the reply header without its transport ``req`` echo."""
        reply, _ = call(
            conn, header, arrays, req=next(self._reqs),
            timeout=self.rpc_timeout if timeout is None else timeout,
        )
        del reply["req"]
        return reply

    def _spawn(self, options: dict):
        """Start one worker of either role: ``(process, conn, ready)``.

        Every worker is handed the primary BLAS budget; a follower
        runs one thread until a promotion raises it to the budget."""
        options = {**options, "blas_threads": self._blas_budget}
        process, conn, ready = spawn_worker(
            self._ctx, options, max(self.rpc_timeout, 30.0)
        )
        role = "primary" if options.get("replica_id") is None else "follower"
        self._set_blas_gauge(options["shard_id"], role, ready)
        return process, conn, ready

    @staticmethod
    def _set_blas_gauge(shard_id: int, role: str, status: dict) -> None:
        threads = status.get("blas_threads")
        if threads is not None:
            get_registry().gauge(
                "sts3_shard_blas_threads",
                "OpenBLAS threads of each worker process, by shard and role",
            ).set(threads, shard=str(shard_id), role=role)

    def _shutdown(self, handle) -> None:
        """Ask a worker of either role to exit; the caller reaps it next."""
        try:
            self._rpc(handle.conn, {"op": "shutdown"}, timeout=5.0)
        except RpcError:
            pass

    def _spawn_worker(self, shard_id: int) -> dict:
        """Start (or restart) one primary; returns its ready status."""
        archive = self.directory / self.manifest["files"][shard_id]
        options = {
            "shard_id": shard_id,
            "archive": str(archive),
            "wal_dir": str(self.shard_wal_dir(shard_id)),
            "fsync_batch": self.fsync_batch,
            "epoch": int(self.manifest["epochs"][shard_id]),
        }
        try:
            process, conn, ready = self._spawn(options)
        except WorkerError as exc:
            raise ShardError(str(exc)) from exc
        self._workers[shard_id] = _WorkerHandle(
            shard_id, process, conn, int(ready["n_series"])
        )
        self._next_id = max(self._next_id, int(ready["max_id"]) + 1)
        self._primary_seq[shard_id] = int(ready.get("wal_seq", 0))
        self._primary_ckpt[shard_id] = int(ready.get("checkpoint_seq", 0))
        self._set_live_gauge()
        return ready

    def _epoch_ok(self, shard_id: int, reply: dict) -> bool:
        """Fencing check on a primary's reply; False means zombie.

        A worker that was presumed dead and replaced answers with the
        epoch it was spawned under; the manifest's epoch moved past it
        when its successor was promoted, so its late acks must not be
        believed (the write is only durable if the *current* primary
        has it).
        """
        seen = reply.get("epoch")
        if seen is None or int(seen) == int(self.manifest["epochs"][shard_id]):
            return True
        get_registry().counter(
            "sts3_fenced_replies_total",
            "primary replies rejected for a stale fencing epoch",
        ).inc(shard=str(shard_id))
        return False

    def _set_live_gauge(self) -> None:
        get_registry().gauge(
            "sts3_shard_workers_live", "shard worker processes currently serving"
        ).set(sum(1 for h in self._workers if h is not None))

    def _reap_worker(self, shard_id: int) -> None:
        handle = self._workers[shard_id]
        if handle is None:
            return
        self._workers[shard_id] = None
        reap_worker(handle.process, handle.conn)
        self._set_live_gauge()

    def _restart_worker(self, shard_id: int) -> dict | None:
        """Reap + respawn one worker; None when the restart itself fails."""
        with span("shard.restart", shard=shard_id):
            self._reap_worker(shard_id)
            get_registry().counter(
                "sts3_shard_restarts_total", "shard worker restarts, by shard"
            ).inc(shard=str(shard_id))
            try:
                return self._spawn_worker(shard_id)
            except ShardError:
                return None

    def _worker_failed(self, shard_id: int, error: str) -> dict | None:
        get_registry().counter(
            "sts3_shard_failures_total", "shard RPC failures, by shard and kind"
        ).inc(shard=str(shard_id), kind=error)
        if self._replicas is not None:
            # With followers standing by, a dead primary is a failover,
            # not an outage: promote the freshest caught-up follower
            # and keep answering complete.  Restart-from-archive is the
            # fallback when no follower can be promoted.
            ready = self._failover(shard_id)
            if ready is not None:
                return ready
        return self._restart_worker(shard_id)

    def _failover(self, shard_id: int) -> dict | None:
        """Promote the freshest follower to primary; None when impossible.

        Order matters for safety: the dead primary is reaped first, the
        fencing epoch is bumped *and persisted* second (from here on no
        reply from the old epoch is believed anywhere), and only then
        is the follower caught up from the dead primary's on-disk WAL
        and promoted.  An acked write was fsynced before its ack, so
        the catch-up ship reads it — zero acked-write loss.
        """
        if self._replicas is None:
            return None
        with span("replication.promote", shard=shard_id):
            try:
                faults.fault_point("replication.promote")
            except faults.SimulatedCrash:
                return None  # promotion aborted; caller falls back
            self._reap_worker(shard_id)
            candidate = self._replicas.freshest(shard_id)
            if candidate is None:
                return None
            epoch = int(self.manifest["epochs"][shard_id]) + 1
            self.manifest["epochs"][shard_id] = epoch
            self._write_manifest(self.directory, self.manifest)
            reply = self._replicas.promote(shard_id, candidate, epoch)
            if reply is None:
                return None
            self._replicas.detach(shard_id, candidate.replica_id)
            self._set_blas_gauge(shard_id, "primary", reply)
            self._workers[shard_id] = _WorkerHandle(
                shard_id, candidate.process, candidate.conn, int(reply["n_series"])
            )
            self.manifest["wal_dirs"][shard_id] = candidate.mirror.name
            self._write_manifest(self.directory, self.manifest)
            self._next_id = max(self._next_id, int(reply["max_id"]) + 1)
            self._primary_seq[shard_id] = int(
                reply.get("wal_seq", reply["applied_seq"])
            )
            self._primary_ckpt[shard_id] = int(
                reply.get("checkpoint_seq", self._primary_ckpt[shard_id])
            )
            get_registry().counter(
                "sts3_failovers_total", "follower promotions to primary, by shard"
            ).inc(shard=str(shard_id))
            # surviving followers now tail the new primary's WAL (the
            # mirror); their watermarks carry over — shipped frames are
            # identical bytes regardless of which primary wrote them
            from .wal import WalTail

            new_dir = self.shard_wal_dir(shard_id)
            for handle in self._replicas.live(shard_id):
                handle.tail = WalTail(new_dir, from_seq=handle.applied_seq)
            self._set_live_gauge()
            return reply

    def promote(self, shard_id: int) -> dict:
        """Manually promote a follower of ``shard_id`` (runbook op).

        Drains replication (ships every journaled record), shuts the
        current primary down cleanly, and runs the same failover path
        an unplanned death takes — so drills and real failovers
        exercise identical code.  Raises :class:`ShardError` when no
        follower can be promoted (the old primary is then restarted).
        """
        with self._lock:
            self._require_open()
            if self._replicas is None:
                raise ShardError("no replicas configured; nothing to promote")
            handle = self._workers[shard_id]
            if handle is not None:
                self._replicas.ship(shard_id)
                self._shutdown(handle)
                self._reap_worker(shard_id)
            ready = self._failover(shard_id)
            if ready is None:
                restarted = self._restart_worker(shard_id)
                raise ShardError(
                    f"shard {shard_id}: no follower could be promoted"
                    + ("" if restarted else " and the primary failed to restart")
                )
            return ready

    def _primary(self, shard_id: int) -> _WorkerHandle | None:
        """This shard's primary — restarted, else failed over, if down."""
        if self._workers[shard_id] is None and self._restart_worker(shard_id) is None:
            self._failover(shard_id)
        return self._workers[shard_id]

    def _ensure_worker(self, shard_id: int) -> _WorkerHandle:
        handle = self._workers[shard_id]
        if handle is None:
            self._restart_worker(shard_id)
            handle = self._workers[shard_id]
        if handle is None:
            raise ShardError(f"shard {shard_id} is down and failed to restart")
        return handle

    def kill_worker(self, shard_id: int) -> None:
        """SIGKILL one worker (fault drills; see docs/sharding.md).

        The handle is left in place: the next RPC touching the shard
        observes the EOF, degrades its answer, and restarts the worker
        — exactly the path an unplanned death takes.
        """
        handle = self._workers[shard_id]
        if handle is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(h.n_series for h in self._workers if h is not None)

    def query(
        self,
        series,
        k: int = 1,
        method: str = "auto",
        scale: int | None = None,
        max_scale: int | None = None,
        deadline_ms: float | None = None,
        deadline_start: float | None = None,
    ) -> QueryResult:
        """Scatter one k-NN query to every shard and gather the merge.

        Same semantics as :meth:`STS3Database.query`, with
        ``Neighbor.index`` carrying *global series ids* (for a built
        collection, its position in the build order).  On a shard
        failure the answer degrades instead of raising: the missing
        partition is named in ``result.skipped_shards`` (with replicas
        configured, failover is attempted first and the query retried
        against the promoted follower).
        """
        return self.query_batch(
            [series], k=k, method=method, scale=scale, max_scale=max_scale,
            deadline_ms=deadline_ms, deadline_start=deadline_start,
        )[0]

    def query_batch(
        self,
        queries,
        k: int = 1,
        method: str = "auto",
        scale: int | None = None,
        max_scale: int | None = None,
        deadline_ms: float | None = None,
        deadline_start: float | None = None,
    ) -> list[QueryResult]:
        """Scatter a query batch to all shards; gather per-query merges.

        The batch is the unit of shard parallelism: every worker runs
        the whole batch over its partition (the vectorized index kernel
        where applicable) while the others do the same, so N shards cut
        wall-clock by ~N on CPU-bound batches — the lever
        ``benchmarks/bench_shard.py`` gates.  Followers never answer
        reads: they mirror the primary's WAL and take over when it dies.
        """
        if method not in METHODS:
            raise ParameterError(f"unknown method {method!r}; one of {METHODS}")
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if not queries:
            return []
        arrays = [
            np.ascontiguousarray(as_series(q), dtype=np.float64) for q in queries
        ]
        remaining_ms = deadline_ms
        if deadline_ms is not None and deadline_start is not None:
            elapsed = (self.clock() - deadline_start) * 1000.0
            remaining_ms = max(deadline_ms - elapsed, 0.0)
        header = {
            "op": "query",
            "k": int(k),
            "method": method,
            "scale": scale,
            "max_scale": max_scale,
            "deadline_ms": remaining_ms,
        }
        requests = get_registry().counter(
            "sts3_shard_requests_total", "shard RPCs issued, by op and shard"
        )
        with self._lock:
            self._require_open()
            header["req"] = next(self._reqs)  # one number for the whole scatter
            responses, failed = self._scatter(arrays, header, requests)
            results = self._merge(len(arrays), k, responses, failed)
        get_registry().counter(
            "sts3_shard_queries_total", "queries answered by the sharded engine"
        ).inc(len(arrays), method=method)
        if failed:
            get_registry().counter(
                "sts3_shard_skipped_total",
                "queries answered with at least one shard missing",
            ).inc(len(arrays))
        return results

    def _scatter(self, arrays, header, requests):
        """Send one batch to every primary, then gather every reply.

        Returns the ``(responses, failed)`` shape :meth:`_merge`
        consumes.  A shard that answers ``op: "error"`` fails the whole
        query — but only after every shard that was sent the request
        has been read, so no reply is left behind in a pipe.
        """
        # Queries are not partitioned: every shard receives the whole
        # batch, so the frame is packed once and the same bytes fan out.
        req = header["req"]
        packed = pack_message(header, arrays)
        sent: list[int] = []
        failed: list[int] = []
        errors: list[str] = []
        responses: list[tuple[int, dict]] = []
        with span("shard.scatter", shards=self.n_shards, queries=len(arrays)):
            for shard_id in range(self.n_shards):
                handle = self._primary(shard_id)
                if handle is None:
                    failed.append(shard_id)
                    continue
                try:
                    send_packed(handle.conn, packed)
                    requests.inc(op="query", shard=str(shard_id))
                    sent.append(shard_id)
                except WorkerDied:
                    reply = self._recover_and_retry(
                        shard_id, "send-eof", packed, req, requests
                    )
                    if reply is not None:
                        responses.append((shard_id, reply))
                    else:
                        failed.append(shard_id)
        with span("shard.gather", shards=len(sent)):
            for shard_id in sent:
                handle = self._workers[shard_id]
                try:
                    reply, _ = recv_reply(handle.conn, req, self.rpc_timeout)
                except RpcError as exc:
                    kind = "timeout" if not isinstance(exc, WorkerDied) else "eof"
                    reply = self._recover_and_retry(
                        shard_id, kind, packed, req, requests
                    )
                    if reply is None:
                        failed.append(shard_id)
                        continue
                if not self._epoch_ok(shard_id, reply):
                    failed.append(shard_id)
                elif reply.get("op") == "error":
                    errors.append(
                        f"shard {shard_id} query failed: {reply.get('error')}"
                    )
                else:
                    responses.append((shard_id, reply))
        if errors:
            raise ShardError(errors[0])
        return responses, failed

    def _recover_and_retry(self, shard_id, kind, packed, req, requests) -> dict | None:
        """Handle a mid-query worker failure; retry only after failover.

        Without replicas the contract is unchanged from the original
        sharded engine — the query degrades while the worker restarts
        in the background.  With replicas, by the time
        :meth:`_worker_failed` returns the freshest follower has been
        promoted, so the same query bytes are re-sent once and the
        answer stays complete.
        """
        ready = self._worker_failed(shard_id, kind)
        if ready is None or self._replicas is None:
            return None
        handle = self._workers[shard_id]
        if handle is None:
            return None
        try:
            requests.inc(op="query", shard=str(shard_id))
            reply, _ = call_packed(handle.conn, packed, req, self.rpc_timeout)
        except RpcError:
            return None
        if reply.get("op") != "result" or not self._epoch_ok(shard_id, reply):
            return None
        return reply

    def _merge(
        self,
        n_queries: int,
        k: int,
        responses: list[tuple[int, dict]],
        failed: list[int],
    ) -> list[QueryResult]:
        """The deterministic gather: per-query KnnHeap over shard answers.

        Workers return global ids, and :class:`KnnHeap`'s ``(similarity
        desc, id asc)`` order is consideration-order independent, so
        the merged top-k equals the single-process answer whenever
        every shard reported (the bit-identity contract).

        Merges straight off the wire dicts (``[id, similarity]`` pairs
        and stats counters) rather than materializing a
        :class:`QueryResult` per shard per query — the gather runs on
        the parent's critical path, after the parallel part is over.
        """
        total = len(self)
        k_eff = max(1, min(int(k), total)) if total else int(k)
        ordered = sorted(responses)
        skipped_shards = [f"shard-{shard_id}" for shard_id in sorted(set(failed))]
        merged: list[QueryResult] = []
        for qi in range(n_queries):
            heap = KnnHeap(k_eff)
            consider = heap.consider
            counters = [0, 0, 0, 0, 0]
            complete = not skipped_shards
            reasons: set[str] = set(("shard",) if skipped_shards else ())
            skipped_segments: list[str] = []
            for shard_id, reply in ordered:
                wire = reply["results"][qi]
                for index, similarity in wire["neighbors"]:
                    consider(similarity, index)
                stats = wire["stats"]
                counters[0] += stats["candidates"]
                counters[1] += stats["exact_computations"]
                counters[2] += stats["pruned"]
                counters[3] += stats["filter_rounds"]
                counters[4] += stats["final_candidates"]
                if not wire["complete"]:
                    complete = False
                    if wire["degraded_reason"]:
                        reasons.update(wire["degraded_reason"].split("+"))
                skipped_segments.extend(
                    f"shard-{shard_id}:{name}"
                    for name in wire["skipped_segments"]
                )
            merged.append(
                QueryResult(
                    neighbors=heap.neighbors(),
                    stats=SearchStats(*counters),
                    complete=complete,
                    skipped_segments=skipped_segments,
                    degraded_reason="+".join(sorted(reasons)) or None,
                    skipped_shards=list(skipped_shards),
                )
            )
        return merged

    # -- updates ----------------------------------------------------------

    def insert(self, series) -> dict:
        """Insert one series; routes to the shard owning its new id.

        Returns a routing report ``{"id", "shard", "path",
        "sealed_segment", "n_series", "buffered"}``.  The acknowledged
        insert is durable in the owning shard's WAL (id note + series
        record, fsynced at the shard's cadence — every record at the
        default ``fsync_batch=1``), so a worker killed right after the
        ack recovers the write on restart; an insert whose RPC *fails*
        reconciles on restart instead: if the journaled write survived
        it is committed, otherwise it never happened.
        """
        arr = np.ascontiguousarray(as_series(series), dtype=np.float64)
        with self._lock:
            self._require_open()
            series_id = self._next_id
            shard_id = self.ring.owner(series_id)
            handle = self._ensure_worker(shard_id)
            expected = handle.n_series
            get_registry().counter(
                "sts3_shard_requests_total", "shard RPCs issued, by op and shard"
            ).inc(op="insert", shard=str(shard_id))
            try:
                reply = self._rpc(
                    handle.conn, {"op": "insert", "id": series_id}, [arr]
                )
            except RpcError as exc:
                kind = "timeout" if not isinstance(exc, WorkerDied) else "eof"
                ready = self._worker_failed(shard_id, kind)
                # At-least-once reconciliation: the worker journals the
                # insert before acking, so a death in the ack window can
                # leave the write durable.  The restarted worker's WAL
                # replay tells us which world we are in.
                if ready is not None and int(ready["n_series"]) == expected + 1:
                    self._next_id = series_id + 1
                    self._primary_seq[shard_id] = int(ready.get("wal_seq", 0))
                    if self._replicas is not None:
                        self._replicas.ship(shard_id)
                    return {
                        "id": series_id,
                        "shard": shard_id,
                        "path": "recovered",
                        "sealed_segment": False,
                        "n_series": len(self),
                        "buffered": int(ready["buffered"]),
                    }
                raise ShardError(
                    f"insert failed on shard {shard_id}: {exc}"
                ) from exc
            if not self._epoch_ok(shard_id, reply):
                raise ShardError(
                    f"insert ack on shard {shard_id} rejected: stale fencing "
                    f"epoch (a newer primary was promoted; the write is not "
                    f"acknowledged)"
                )
            if reply.get("op") == "error":
                raise ShardError(
                    f"insert failed on shard {shard_id}: {reply.get('error')}"
                )
            handle.n_series = int(reply["n_series"])
            self._next_id = series_id + 1
            self._primary_seq[shard_id] = int(reply.get("wal_seq", 0))
            # the write is durable on the primary; stream it out while
            # the engine lock is still held, so follower lag is bounded
            # by one insert in the healthy steady state
            if self._replicas is not None:
                self._replicas.ship(shard_id)
            return {
                "id": series_id,
                "shard": shard_id,
                "path": reply["path"],
                "sealed_segment": bool(reply["sealed_segment"]),
                "n_series": len(self),
                "buffered": int(reply["buffered"]),
            }

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        """Checkpoint every shard archive and rewrite the manifest.

        Each worker saves its own v4 archive (with the id table in the
        manifest extras) and retires its WAL generations; the top-level
        manifest then records the new totals.  Requires every shard up
        — a checkpoint that silently skipped a shard would not be a
        checkpoint.
        """
        with self._lock:
            self._require_open()
            if self._replicas is not None:
                # drain replication first: a checkpoint retires the WAL
                # generations the followers are tailing, and a follower
                # left behind one would need a full re-bootstrap
                self._replicas.ship_all()
            for shard_id in range(self.n_shards):
                handle = self._ensure_worker(shard_id)
                reply = self._rpc(
                    handle.conn, {"op": "checkpoint"},
                    timeout=max(self.rpc_timeout, 60.0),
                )
                if reply.get("op") != "ack":
                    raise ShardError(
                        f"checkpoint failed on shard {shard_id}: "
                        f"{reply.get('error')}"
                    )
                if not self._epoch_ok(shard_id, reply):
                    raise ShardError(
                        f"checkpoint ack on shard {shard_id} rejected: "
                        f"stale fencing epoch"
                    )
                handle.n_series = int(reply["n_series"])
                self._primary_seq[shard_id] = int(
                    reply.get("wal_seq", self._primary_seq[shard_id])
                )
                self._primary_ckpt[shard_id] = int(
                    reply.get("checkpoint_seq", self._primary_ckpt[shard_id])
                )
            self.manifest["series_total"] = len(self)
            self.manifest["next_id"] = self._next_id
            self._write_manifest(self.directory, self.manifest)

    checkpoint = save

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        """Per-shard health: series counts, segments, WAL lag, liveness."""
        with self._lock:
            self._require_open()
            shards = []
            for shard_id in range(self.n_shards):
                entry = {
                    "shard": shard_id,
                    "file": self.manifest["files"][shard_id],
                    "alive": False,
                }
                handle = self._workers[shard_id]
                if handle is not None:
                    try:
                        reply = self._rpc(handle.conn, {"op": "status"})
                        entry.update(reply)
                        entry["alive"] = True
                        entry.pop("op", None)
                    except RpcError:
                        self._worker_failed(shard_id, "status")
                shards.append(entry)
            status = {
                "shards": self.n_shards,
                "hash_seed": self.manifest["hash_seed"],
                "vnodes": self.manifest["vnodes"],
                "series_total": len(self),
                "next_id": self._next_id,
                "workers_live": sum(1 for h in self._workers if h is not None),
                "per_shard": shards,
            }
            if self._replicas is not None:
                status["replicas"] = self._replicas.n_replicas
                status["epochs"] = list(self.manifest["epochs"])
                status["replication"] = self.replica_status()
            return status

    def replica_status(self) -> list[dict]:
        """Per-shard replication detail: watermark, lag, liveness.

        Empty when no replicas are configured.  The lag figures are the
        same ones the ``sts3_replication_lag_records`` /
        ``sts3_replication_lag_seconds`` gauges export.
        """
        with self._lock:
            self._require_open()
            if self._replicas is None:
                return []
            return [
                {
                    "shard": shard_id,
                    "epoch": int(self.manifest["epochs"][shard_id]),
                    "primary_seq": int(self._primary_seq[shard_id]),
                    "wal_dir": self.shard_wal_dir(shard_id).name,
                    "replicas": self._replicas.status(shard_id),
                }
                for shard_id in range(self.n_shards)
            ]

    def ship_replication(self) -> None:
        """Drive one shipping round to every follower (test/ops hook).

        Shipping normally happens inline after each insert; this lets
        a drill or an operator push pending frames out without writing.
        """
        with self._lock:
            self._require_open()
            if self._replicas is not None:
                self._replicas.ship_all()

    def maintenance_status(self) -> dict:
        """Shard-level health in the shape ``/healthz`` renders.

        Matches the single-process key set (``/healthz`` reads these
        unconditionally); per-shard segment and WAL detail lives behind
        :meth:`status`, which asks the workers.
        """
        with self._lock:
            live = sum(1 for h in self._workers if h is not None)
            replicas_live = (
                sum(
                    1
                    for row in self._replicas.handles
                    for h in row
                    if h is not None
                )
                if self._replicas is not None
                else 0
            )
        return {
            "engine": "sharded",
            "replicas": (
                self._replicas.n_replicas if self._replicas is not None else 0
            ),
            "replicas_live": replicas_live,
            "wal_lag": None,
            "live_segments": None,
            "max_segments": None,
            "resident_bytes": 0,
            "memory_budget_bytes": None,
            "pinned_snapshots": 0,
            "shards": self.n_shards,
            "workers_live": live,
            "series_total": len(self),
        }

    def verify_integrity(self) -> list[str]:
        """Every shard's self-check, problems prefixed with the shard."""
        problems: list[str] = []
        with self._lock:
            self._require_open()
            for shard_id in range(self.n_shards):
                handle = self._workers[shard_id]
                if handle is None:
                    problems.append(f"shard-{shard_id}: worker down")
                    continue
                try:
                    reply = self._rpc(
                        handle.conn, {"op": "verify"},
                        timeout=max(self.rpc_timeout, 60.0),
                    )
                except RpcError as exc:
                    problems.append(f"shard-{shard_id}: verify RPC failed ({exc})")
                    continue
                problems.extend(
                    f"shard-{shard_id}: {p}" for p in reply.get("problems", ())
                )
        return problems

    # -- lifecycle ---------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ShardError("sharded database is closed")

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._replicas is not None:
                self._replicas.close()
                self._replicas = None
            for shard_id in range(self.n_shards):
                handle = self._workers[shard_id]
                if handle is not None:
                    self._shutdown(handle)
                    self._reap_worker(shard_id)

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
