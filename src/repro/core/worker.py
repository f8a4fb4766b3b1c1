"""The worker process of the sharded engine: one loop, two roles.

Every process the sharded engine starts — a shard's **primary**
(docs/sharding.md) or one of its **followers** (docs/replication.md) —
runs :func:`worker_main`, and is started, awaited and reaped through
:func:`spawn_worker` / :func:`reap_worker`:

1. **bootstrap** — open the shard archive ``mmap=True`` and replay a WAL
   onto it: a primary recovers the shard's live WAL and keeps
   journaling to it; a follower replays its own *mirror* and enters
   follower apply mode (direct writes are rejected);
2. **id-table replay** — rebuild the local→global id table from the
   checkpointed archive extras plus the replayed ``note`` records;
3. **ready** — one frame tells the supervisor how the bootstrap went;
4. **serve** — one request at a time until ``shutdown`` or EOF.
   ``ship`` exists only while follower; ``promote`` is a state
   transition (attach a journaling WAL over the mirror, take the new
   fencing epoch) after which the loop *is* a primary's.

A request is answered in one place whatever the role: a handler's
exception becomes an ``op: "error"`` frame, every reply echoes the
request's ``req`` (:mod:`repro.core.rpc`) and carries the worker's
``epoch``, and a :class:`~repro.faults.SimulatedCrash` at a worker-side
fault point (``shard.worker.request`` while primary,
``replication.apply``, ``replication.promote``) exits the process hard
— the deterministic stand-in for ``kill -9``.  A worker is handed a
plain ``options`` dict; no engine object crosses the process boundary.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

from .. import faults
from ..exceptions import ReproError
from ..obs import span
from ..serve.protocol import OP_PROMOTE, OP_SHIP, result_to_wire
from .persistence import apply_wal_records, load_database, recover_database
from .result import Neighbor
from .rpc import RpcError, WorkerDied, recv_frame, send_frame
from .wal import (
    MAGIC,
    WriteAheadLog,
    _generation_files,
    parse_frames,
    replay_wal,
    write_applied_seq,
)

__all__ = ["WorkerError", "reap_worker", "spawn_worker", "worker_main"]


class WorkerError(ReproError):
    """A worker could not bootstrap, or was sent a request it cannot serve."""


# -- the shard-local id table -------------------------------------------


class _ShardIdTable:
    """Local index → global id mapping for one shard.

    A shard database's global index order is "stored segments, then
    update buffer" — and a *direct* insert lands before the buffered
    tail, so one flat list in arrival order would drift.  Two lists
    mirror the database's structural transitions exactly: direct
    inserts append to ``stored``, buffered ones to ``buffered``, and a
    seal moves the buffered block to the end of ``stored`` — the same
    move the catalog makes with the series themselves.
    """

    __slots__ = ("stored", "buffered")

    def __init__(self, stored=None, buffered=None):
        self.stored: list[int] = [int(i) for i in (stored or [])]
        self.buffered: list[int] = [int(i) for i in (buffered or [])]

    def __len__(self) -> int:
        return len(self.stored) + len(self.buffered)

    def insert(self, series_id: int, path: str, sealed: bool) -> None:
        if path == "direct":
            self.stored.append(int(series_id))
        else:
            self.buffered.append(int(series_id))
            if sealed:
                self.seal()

    def seal(self) -> None:
        self.stored.extend(self.buffered)
        self.buffered = []

    def global_id(self, local_index: int) -> int:
        if local_index < len(self.stored):
            return self.stored[local_index]
        return self.buffered[local_index - len(self.stored)]

    def all_ids(self) -> list[int]:
        return self.stored + self.buffered

    def max_id(self) -> int:
        ids = self.all_ids()
        return max(ids) if ids else -1

    def to_extras(self) -> dict:
        return {"stored": list(self.stored), "buffered": list(self.buffered)}

    @classmethod
    def from_extras(cls, extras: dict) -> "_ShardIdTable":
        return cls(extras.get("stored", []), extras.get("buffered", []))

    def replay(self, replayed, where: str) -> None:
        """Re-apply observed WAL records to the table.

        ``replayed`` is the ``(record, info)`` stream an
        :func:`~repro.core.persistence.apply_wal_records` observer
        collected — at bootstrap and on every applied shipment, the
        same journal rebuilds the same local→global mapping.
        """
        pending_id: int | None = None
        for record, info in replayed:
            op = record["op"]
            if op == "note":
                pending_id = int(record["id"])
            elif op == "insert":
                if pending_id is None:
                    raise WorkerError(
                        f"{where}: WAL insert at seq "
                        f"{record['seq']} has no preceding id note"
                    )
                self.insert(pending_id, info["path"], info["sealed"])
                pending_id = None
            elif op == "flush" and info and info["sealed"]:
                self.seal()
            # compact/merge preserve stored order: nothing to track


class _MirrorWriter:
    """Append-only writer for a follower's mirror WAL directory.

    Shipped frames are already framed and checksummed; the mirror just
    needs them on disk (magic-prefixed, generation-numbered) before the
    apply is acknowledged.  Appends go to the newest generation file —
    creating ``00000001.wal`` when the mirror is empty — so the mirror
    replays and lints exactly like a primary WAL directory.
    """

    def __init__(self, directory: Path):
        existing = _generation_files(directory)
        path = existing[-1] if existing else directory / f"{1:08d}.wal"
        fresh = not path.exists() or path.stat().st_size == 0
        self._file = open(path, "ab")
        if fresh:
            self.append(MAGIC)

    def append(self, blob: bytes) -> None:
        self._file.write(blob)
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()


# -- the worker process --------------------------------------------------


def _label(options: dict) -> str:
    """``shard N`` for a primary, ``shard N replica R`` for a follower."""
    label = f"shard {options['shard_id']}"
    if options.get("replica_id") is not None:
        label += f" replica {options['replica_id']}"
    return label


class _Worker:
    """One worker's state: shard database, id table, role, epoch.

    ``options`` carries ``shard_id``, ``archive``, ``epoch`` and
    ``fsync_batch`` for both roles; a primary also gets its live
    ``wal_dir``, a follower its ``replica_id`` and ``mirror`` directory.
    """

    def __init__(self, options: dict):
        self.options = options
        self.label = _label(options)
        self.epoch = int(options.get("epoch", 0))
        self.follower = options.get("replica_id") is not None
        replayed: list[tuple[dict, dict | None]] = []

        def observe(record, info):
            replayed.append((record, info))

        if self.follower:
            self.db = load_database(options["archive"], mmap=True)
            self.db.set_follower(True)
            # Replaying the *mirror* lets a restarted follower resume
            # from its own watermark instead of re-shipping history.
            self.mirror = Path(options["mirror"])
            self.mirror.mkdir(parents=True, exist_ok=True)
            records, report = replay_wal(self.mirror, truncate=True)
            if report.records and report.last_seq <= self.db.wal_seq:
                # Every mirrored frame is covered by the archive (the
                # follower lagged across a checkpoint and was
                # re-bootstrapped); a fresh mirror keeps future ships
                # contiguous from the watermark.
                for path in _generation_files(self.mirror):
                    path.unlink()
                records = []
            apply_wal_records(
                self.db, records, from_seq=self.db.wal_seq, observer=observe
            )
            self.applied = max(self.db.wal_seq, report.last_seq)
            write_applied_seq(self.mirror, self.applied)
            self.writer = _MirrorWriter(self.mirror)
        else:
            self.db = recover_database(
                options["archive"],
                wal_dir=options.get("wal_dir"),
                fsync_batch=options.get("fsync_batch"),
                mmap=True,
                observer=observe,
            )
        self.table = _ShardIdTable.from_extras(
            getattr(self.db, "archive_extras", {}).get("shard", {})
        )
        self.table.replay(replayed, self.label)
        if len(self.table) != len(self.db):
            raise WorkerError(
                f"{self.label}: id table covers {len(self.table)} series, "
                f"database holds {len(self.db)}"
            )

    def status(self) -> dict:
        """The counters every ack carries (and the ``ready`` frame)."""
        db, table, wal = self.db, self.table, self.db.wal
        status = {
            "n_series": len(db),
            "stored": len(table.stored),
            "buffered": len(table.buffered),
            "segments": len(db.catalog.segments),
            "max_id": table.max_id(),
            "wal_lag": 0 if wal is None else wal.records_since_checkpoint,
            "wal_seq": db.wal_seq if wal is None else wal.last_seq,
            "checkpoint_seq": db.wal_seq if wal is None else wal.checkpoint_seq,
        }
        if self.follower:
            status["applied_seq"] = self.applied
        return status

    def close(self) -> None:
        if self.follower:
            self.writer.close()
        self.db.close()

    # -- request dispatch ----------------------------------------------

    def handle(self, header: dict, arrays) -> dict:
        """Serve one request; returns the reply header."""
        if not self.follower:
            faults.fault_point("shard.worker.request")
        op = header.get("op")
        if op == "shutdown":
            return {"op": "ack"}
        if op == "ping":
            return {"op": "pong", **self.status()}
        if op == "status":
            return {"op": "status", **self.status()}
        if op == "verify":
            return {"op": "verify", "problems": self.db.verify_integrity()}
        if op == "query":
            return self._query(header, arrays)
        if op == "insert":
            return self._insert(int(header["id"]), arrays[0])
        if op == "checkpoint":
            self.db.checkpoint(
                self.options["archive"], extras={"shard": self.table.to_extras()}
            )
            return {"op": "ack", **self.status()}
        if self.follower:
            if op == OP_SHIP:
                faults.fault_point("replication.apply")
                return self._ship(header, arrays)
            if op == OP_PROMOTE:
                faults.fault_point("replication.promote")
                return self._promote(int(header["epoch"]))
        raise WorkerError(f"unknown shard RPC op {op!r}")

    def _query(self, header: dict, arrays) -> dict:
        results = self.db.query_batch(
            list(arrays),
            k=int(header["k"]),
            method=header.get("method", "auto"),
            scale=header.get("scale"),
            max_scale=header.get("max_scale"),
            deadline_ms=header.get("deadline_ms"),
        )
        wired = []
        for result in results:
            # Translate shard-local indices to global ids here, where
            # the table lives; the parent merges on ids alone.
            result.neighbors = [
                Neighbor(
                    similarity=n.similarity, index=self.table.global_id(n.index)
                )
                for n in result.neighbors
            ]
            wired.append(result_to_wire(result))
        return {"op": "result", "results": wired}

    def _insert(self, series_id: int, series) -> dict:
        db = self.db
        prepared = db._prepare(series)
        # The id note precedes the insert record, so a replayed WAL
        # prefix always pairs them (a torn tail can orphan a note,
        # never an insert).
        if db.wal is not None:
            db.wal.append("note", id=series_id)
        buffered_before = len(db.buffer)
        rebuilds_before = db.rebuild_count
        db._insert_prepared(prepared)
        if len(db.buffer) == buffered_before + 1:
            path, sealed = "buffered", False
        elif db.rebuild_count > rebuilds_before:
            path, sealed = "buffered", True
        else:
            path, sealed = "direct", False
        self.table.insert(series_id, path, sealed)
        return {
            "op": "ack",
            "id": series_id,
            "path": path,
            "sealed_segment": sealed,
            **self.status(),
        }

    def _ship(self, header: dict, arrays) -> dict:
        """Mirror + apply one shipped run of WAL frames."""
        first = int(header["first_seq"])
        if first != self.applied + 1:
            return {
                "op": "error",
                "error": (
                    f"ship gap: follower applied through {self.applied}, "
                    f"shipment starts at {first}"
                ),
                "applied_seq": self.applied,
            }
        blob = arrays[0].tobytes() if arrays else b""
        records = parse_frames(blob, expect_seq=first)
        if records:
            # durability first: the mirror append is fsynced before the
            # apply, so an acked shipment survives this follower's death
            self.writer.append(blob)
            replayed: list[tuple[dict, dict | None]] = []
            with span("replication.apply", records=len(records)):
                apply_wal_records(
                    self.db,
                    records,
                    from_seq=self.applied,
                    observer=lambda record, info: replayed.append((record, info)),
                )
            self.table.replay(replayed, self.label)
            self.applied = records[-1]["seq"]
            write_applied_seq(self.mirror, self.applied)
        return {"op": "ack", **self.status()}

    def _promote(self, epoch: int) -> dict:
        """Follower → primary: the mirror becomes the shard's live WAL."""
        reply = {"op": "ack", "promoted": True, "applied_seq": self.applied}
        self.writer.close()
        self.epoch = epoch
        self.db.set_follower(False)
        self.db.attach_wal(
            WriteAheadLog(
                self.mirror,
                fsync_batch=int(self.options.get("fsync_batch") or 1),
                start_seq=self.applied,
            )
        )
        self.follower = False
        return {**reply, **self.status()}


def worker_main(conn, options: dict) -> None:
    """Bootstrap one worker, report ``ready``, serve its pipe until told
    to stop.  Runs in a dedicated process (see the module docstring)."""
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; shutdown is the supervisor's call (a shutdown frame or
    # pipe EOF), so workers must not die to the shared signal first.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        worker = _Worker(options)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            send_frame(conn, {"op": "ready", "status": "error", "error": f"{exc}"})
        except Exception:
            pass
        conn.close()
        return
    send_frame(
        conn,
        {"op": "ready", "status": "ok", "epoch": worker.epoch, **worker.status()},
    )
    try:
        while True:
            try:
                header, arrays = recv_frame(conn, None)
            except WorkerDied:
                break  # the supervisor closed its end
            try:
                reply = worker.handle(header, arrays)
            except faults.SimulatedCrash:
                os._exit(17)  # the injected kill -9
            except Exception as exc:  # noqa: BLE001 - answer, keep serving
                reply = {"op": "error", "error": f"{exc}"}
            # Every reply names the request it answers and carries the
            # worker's fencing epoch; the supervisor rejects stale ones
            # (zombie-primary protection).
            send_frame(
                conn, {**reply, "req": header.get("req"), "epoch": worker.epoch}
            )
            if header.get("op") == "shutdown":
                break
    finally:
        worker.close()
        conn.close()


# -- the supervisor side of the handshake ---------------------------------


def spawn_worker(ctx, options: dict, timeout: float):
    """Start one worker process and wait for its ``ready`` frame.

    Returns ``(process, conn, ready)``; raises :class:`WorkerError`
    (with the worker reaped) when it does not come up healthy in time.
    """
    name = "sts3-" + _label(options).replace(" ", "-")
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=worker_main, args=(child_conn, options), name=name, daemon=True
    )
    process.start()
    child_conn.close()
    try:
        ready, _ = recv_frame(parent_conn, timeout)
        error = None if ready.get("status") == "ok" else str(ready.get("error"))
    except RpcError as exc:
        error = str(exc)
    if error is not None:
        reap_worker(process, parent_conn)
        raise WorkerError(f"{_label(options)} failed to start: {error}")
    return process, parent_conn, ready


def reap_worker(process, conn) -> None:
    """Close the pipe and make sure the process is gone."""
    try:
        conn.close()
    except OSError:
        pass
    if process.is_alive():
        process.kill()
    process.join(timeout=5.0)
