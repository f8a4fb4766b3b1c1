"""The four ways the benchmark runs the program, behind one interface.

Each deployment drives the program only through its public functions
and is taken through the same lifecycle (set-up, queries, batches,
inserts, checkpoint, recovery) by :mod:`harness.lifecycle`; what
differs is which layers do the work on the way.  Every resource a
deployment opens it closes in :meth:`Deployment.teardown`, which is
safe to call at any point of a half-finished set-up.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from pathlib import Path

import numpy as np

from repro import STS3Database
from repro.core.maintenance import MaintenanceConfig
from repro.core.persistence import (
    default_wal_dir,
    load_database,
    recover_database,
    save_database,
)
from repro.core.shard import ShardedDatabase
from repro.core.wal import WriteAheadLog
from repro.serve import ServeClient, ServerThread, ServiceConfig

from .inputs import Inputs

__all__ = [
    "DEPLOYMENTS",
    "Deployment",
    "K",
    "METHOD",
    "PARAMS",
    "answer_key",
    "tree_bytes",
]

#: database parameters of every workload (ISSUE 13; DESIGN.md §2).
PARAMS = dict(sigma=3, epsilon=0.58, normalize=False)
K = 10
METHOD = "index"


def answer_key(result) -> list[tuple[int, str]]:
    """An answer as ``(index, similarity.hex())`` pairs: no tolerance."""
    return [(n.index, float(n.similarity).hex()) for n in result.neighbors]


def tree_bytes(path: Path) -> int:
    """Bytes of one file, or of every file under a directory."""
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Deployment:
    """One running shape of the program (see the module docstring).

    ``callers`` is the number of closed-loop callers the workload
    drives it with; ``query`` takes the caller's index so each caller
    keeps to its own connection.  ``has_wal`` says whether an insert is
    durable once acknowledged (so a restart must bring it back) or only
    once checkpointed.
    """

    name = ""
    callers = 1
    has_wal = False

    def __init__(self, inputs: Inputs, scratch: Path):
        self.inputs = inputs
        self.scratch = scratch
        #: the first pool series; every set-up and recovery answers it.
        self.probe = inputs.take(1)[0]

    # -- lifecycle ------------------------------------------------------
    def setup(self, directory: Path):
        """Build/open/spawn under ``directory``; returns the first answer."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def after_main(self) -> None:
        """Hook between the main phase and the phases that need a settled layout."""

    # -- operations -----------------------------------------------------
    def query(self, series: np.ndarray, caller: int = 0, method: str = METHOD):
        raise NotImplementedError

    def query_batch(self, queries: list[np.ndarray]):
        raise NotImplementedError

    def insert(self, series: np.ndarray) -> None:
        raise NotImplementedError

    def checkpoint(self) -> None:
        raise NotImplementedError

    def stored_bytes(self) -> int:
        """Bytes on disk (archive + write-ahead log)."""
        raise NotImplementedError

    def recover(self) -> tuple[float, list[str]]:
        """Restart from what is on disk.

        Returns the seconds from the start of the restart to its first
        answer, and the problems found afterwards: a first answer that
        differs from the oracle's, or durable writes the restart lost.
        """
        raise NotImplementedError

    def oracle(self) -> STS3Database:
        """An in-process database over the same acknowledged writes.

        Queried with ``method="naive"`` (the paper's Algorithm 2) it is
        the reference every sampled answer is hex-compared with.
        """
        raise NotImplementedError

    def _restart_problems(self, answer, held: int, expected: int) -> list[str]:
        problems = []
        want = self.oracle().query(self.probe, k=K, method="naive")
        if answer_key(answer) != answer_key(want):
            problems.append("first answer after restart differs from the oracle's")
        if held != expected:
            problems.append(f"restart holds {held} series, {expected} were durable")
        return problems


class DirectKnn(Deployment):
    """One caller, in-process ``STS3Database``, one segment, no WAL, no cache."""

    name = "direct_knn"

    def __init__(self, inputs, scratch):
        super().__init__(inputs, scratch)
        self.db: STS3Database | None = None
        self.archive: Path | None = None

    def setup(self, directory):
        self.archive = directory / "direct.sts3"
        self.db = STS3Database(self.inputs.base, **PARAMS)
        return self.db.query(self.probe, k=K, method=METHOD)

    def teardown(self):
        if self.db is not None:
            self.db.close()
            self.db = None

    def query(self, series, caller=0, method=METHOD):
        return self.db.query(series, k=K, method=method)

    def query_batch(self, queries):
        return self.db.query_batch(queries, k=K, method=METHOD)

    def insert(self, series):
        self.db.insert(series)

    def checkpoint(self):
        save_database(self.db, self.archive)

    def stored_bytes(self):
        return tree_bytes(self.archive)

    def recover(self):
        start = time.perf_counter()
        restored = load_database(self.archive)
        try:
            answer = restored.query(self.probe, k=K, method=METHOD)
            seconds = time.perf_counter() - start
            return seconds, self._restart_problems(answer, len(restored), len(self.db))
        finally:
            restored.close()

    def oracle(self):
        return self.db


class ServedKnn(Deployment):
    """``ServerThread`` over an mmap-opened archive; two closed-loop clients."""

    name = "served_knn"
    callers = 2
    cache_bytes = 8 << 20

    def __init__(self, inputs, scratch):
        super().__init__(inputs, scratch)
        self.db: STS3Database | None = None
        self.server: ServerThread | None = None
        self.clients: list[ServeClient] = []
        self.archive: Path | None = None

    def setup(self, directory):
        self.archive = directory / "served.sts3"
        save_database(STS3Database(self.inputs.base, **PARAMS), self.archive)
        return self._open()

    def _open(self):
        self.db = load_database(
            self.archive, mmap=True, cache_bytes=self.cache_bytes
        )
        self.server = ServerThread(self.db, ServiceConfig()).start()
        for _ in range(self.callers):
            self.clients.append(ServeClient("127.0.0.1", self.server.port))
        return self.query(self.probe)

    def teardown(self):
        had_clients = bool(self.clients)
        while self.clients:
            self.clients.pop().close()
        if self.server is not None:
            server, self.server = self.server, None
            if had_clients:
                # let the connection handlers read their EOFs first; a
                # loop stopped under them complains on stderr
                server.submit(asyncio.sleep(0.05)).result(timeout=10)
            server.stop()  # drains, then releases the engine thread
        if self.db is not None:
            self.db.close()
            self.db = None

    def query(self, series, caller=0, method=METHOD):
        return self.clients[caller].query(series, k=K, method=method)

    def query_batch(self, queries):
        return self.clients[0].query_batch(queries, k=K, method=METHOD)

    def insert(self, series):
        self.clients[0].insert(series)

    def checkpoint(self):
        # The wire protocol has no checkpoint op; an embedding
        # application calls the database's own mutation-locked entry.
        self.db.checkpoint(self.archive)

    def stored_bytes(self):
        return tree_bytes(self.archive)

    def recover(self):
        expected = len(self.db)
        self.teardown()
        start = time.perf_counter()
        answer = self._open()
        seconds = time.perf_counter() - start
        return seconds, self._restart_problems(answer, len(self.db), expected)

    def oracle(self):
        return self.db


class ShardedKnn(Deployment):
    """``ShardedDatabase`` with two forked shard workers, one caller."""

    name = "sharded_knn"
    has_wal = True
    shards = 2

    def __init__(self, inputs, scratch):
        super().__init__(inputs, scratch)
        self.sdb: ShardedDatabase | None = None
        self.directory: Path | None = None
        self._acked: list[np.ndarray] = []
        self._oracle: STS3Database | None = None
        self._oracle_applied = 0

    def setup(self, directory):
        self.directory = directory / "shards"
        self.sdb = ShardedDatabase.build(
            self.inputs.base, self.shards, self.directory, **PARAMS
        )
        return self.sdb.query(self.probe, k=K, method=METHOD)

    def teardown(self):
        if self.sdb is not None:
            sdb, self.sdb = self.sdb, None
            sdb.close()
        if self._oracle is not None:
            self._oracle.close()
            self._oracle = None
        self._acked = []
        self._oracle_applied = 0

    def query(self, series, caller=0, method=METHOD):
        return self.sdb.query(series, k=K, method=method)

    def query_batch(self, queries):
        return self.sdb.query_batch(queries, k=K, method=METHOD)

    def insert(self, series):
        self.sdb.insert(series)
        self._acked.append(series)

    def checkpoint(self):
        self.sdb.save()

    def stored_bytes(self):
        return tree_bytes(self.directory)

    def recover(self):
        self.sdb.close()
        start = time.perf_counter()
        self.sdb = ShardedDatabase.open(self.directory)
        answer = self.sdb.query(self.probe, k=K, method=METHOD)
        seconds = time.perf_counter() - start
        expected = len(self.inputs.base) + len(self._acked)
        return seconds, self._restart_problems(answer, len(self.sdb), expected)

    def oracle(self):
        # Built over the whole collection, so its base grid is the
        # shared grid ShardedDatabase.build gives every shard, and
        # global ids are positions in build-then-insert order.
        if self._oracle is None:
            self._oracle = STS3Database(self.inputs.base, **PARAMS)
        for series in self._acked[self._oracle_applied:]:
            self._oracle.insert(series)
        self._oracle_applied = len(self._acked)
        return self._oracle


class IngestMixed(Deployment):
    """One caller; archive + WAL + background maintenance; writes beside reads."""

    name = "ingest_mixed"
    has_wal = True

    def __init__(self, inputs, scratch):
        super().__init__(inputs, scratch)
        self.db: STS3Database | None = None
        self.archive: Path | None = None
        #: (WAL seq after the insert, the series) per insert, in order.
        self.journal: list[tuple[int, np.ndarray]] = []
        self._images = 0

    def setup(self, directory):
        self.archive = directory / "ingest.sts3"
        self.db = STS3Database(self.inputs.base, **PARAMS)
        save_database(self.db, self.archive)
        self.db.attach_wal(WriteAheadLog(default_wal_dir(self.archive)))
        self.db.enable_maintenance(MaintenanceConfig(), start=True)
        return self.db.query(self.probe, k=K, method=METHOD)

    def teardown(self):
        if self.db is not None:
            self.db.close()  # stops maintenance, syncs and closes the WAL
            self.db = None
        self.journal = []

    def after_main(self):
        # Merge to the policy's fixpoint: seals are fixed by the insert
        # stream and each merge removes fanout-1 segments, so from here
        # the layout and the seal and merge counts repeat exactly.
        self.db.maintenance.run_until_idle()

    def query(self, series, caller=0, method=METHOD):
        return self.db.query(series, k=K, method=method)

    def query_batch(self, queries):
        return self.db.query_batch(queries, k=K, method=METHOD)

    def insert(self, series):
        self.db.insert(series)
        self.journal.append((self.db.wal.last_seq, series))

    def checkpoint(self):
        self.db.checkpoint(self.archive)

    def stored_bytes(self):
        return tree_bytes(self.archive) + tree_bytes(default_wal_dir(self.archive))

    def recover(self):
        # A crash image: the bytes on disk right now, taken without
        # sync() or close(), so appends still in the log's userspace
        # buffer are lost exactly as a power cut would lose them.
        synced = self.db.wal.synced_seq
        self._images += 1
        image = self.scratch / f"crash-image-{self._images}.sts3"
        shutil.copyfile(self.archive, image)
        shutil.copytree(default_wal_dir(self.archive), default_wal_dir(image))
        start = time.perf_counter()
        restored = recover_database(image)
        try:
            answer = restored.query(self.probe, k=K, method=METHOD)
            seconds = time.perf_counter() - start
            problems = []
            # The image may lack the unsynced tail, so the reference is
            # the restored database's own naive scan, and durability is
            # checked write by write: global order is not insert order
            # (buffered series seal behind later in-bound ones).
            want = restored.query(self.probe, k=K, method="naive")
            if answer_key(answer) != answer_key(want):
                problems.append("first answer after recovery differs from the oracle's")
            held = {
                s.tobytes()
                for s in restored.catalog.all_series() + list(restored.buffer.series)
            }
            for seq, series in self.journal:
                if seq <= synced and series.tobytes() not in held:
                    problems.append(f"acknowledged insert seq {seq} lost")
            return seconds, problems
        finally:
            restored.close()
            shutil.rmtree(default_wal_dir(image), ignore_errors=True)
            image.unlink(missing_ok=True)

    def oracle(self):
        return self.db


DEPLOYMENTS = {
    cls.name: cls for cls in (DirectKnn, ServedKnn, ShardedKnn, IngestMixed)
}
