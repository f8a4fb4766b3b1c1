"""The replication contracts: lag convergence and failover.

Followers serve no reads — they mirror their primary's WAL and take
over when it dies — so the phase checks the two things they are for
(docs/replication.md):

- **lag convergence** — after a write burst, every follower's
  ``lag_records`` must be exactly 0 (shipping runs inline with the
  ack, so the healthy steady state has no visible staleness window).
- **failover** — an acked insert must survive SIGKILL of its primary:
  the next query promotes the freshest follower and stays complete,
  the fencing epoch moves, and the insert is found at similarity 1.0
  under its acked id — the zero-acked-write-loss drill.

Wired into ``benchmarks/bench_replication.py`` (the CI gate).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from ..core.executor import available_cpu_count
from ..core.shard import ShardedDatabase

__all__ = ["run_replication_phase"]


def run_replication_phase(
    n_series: int = 4000,
    length: int = 128,
    sigma: float = 3,
    epsilon: float = 0.58,
    k: int = 10,
    seed: int = 42,
    shards: int = 1,
    replicas: int = 2,
    writes: int = 16,
    directory: str | Path | None = None,
    check_faults: bool = True,
) -> dict:
    """Verify the replicated engine's contracts; returns the phase record.

    ``check_faults=False`` skips the primary-kill drill.
    """
    rng = np.random.default_rng(seed)
    base = [rng.normal(size=length) for _ in range(n_series)]

    tmp = None
    if directory is None:
        tmp = tempfile.TemporaryDirectory(prefix="sts3-replication-bench-")
        directory = Path(tmp.name) / "shards"
    try:
        sharded = ShardedDatabase.build(
            base, shards, directory,
            sigma=sigma, epsilon=epsilon, normalize=False, replicas=replicas,
        )
        try:
            # write burst: inline shipping must leave zero visible lag
            for _ in range(writes):
                sharded.insert(rng.normal(size=length))
            lags = [
                replica["lag_records"]
                for entry in sharded.replica_status()
                for replica in entry["replicas"]
                if replica["alive"]
            ]
            record = {
                "phase": "replication",
                "n_series": n_series,
                "k": k,
                "shards": shards,
                "replicas": replicas,
                "available_cores": available_cpu_count(),
                "writes": writes,
                "followers_live": len(lags),
                "max_lag_records": max(lags) if lags else None,
                "lag_converged": bool(lags) and max(lags) == 0,
            }
            if check_faults:
                record.update(_failover_drill(sharded, rng, length, k))
            return record
        finally:
            sharded.close()
    finally:
        if tmp is not None:
            tmp.cleanup()


def _failover_drill(sharded: ShardedDatabase, rng, length: int, k: int) -> dict:
    """SIGKILL the primary after an acked insert; verify the contract.

    Expected sequence: the post-kill query promotes the freshest
    follower inline and is already complete (no degraded window — the
    difference from the replica-free engine's restart drill); the
    fencing epoch moves; the acked insert is found at exactly
    similarity 1.0 under its acked id.
    """
    probe = rng.normal(size=length) * 8.0  # out-of-bound: exercises the buffer
    report = sharded.insert(probe)
    victim = report["shard"]
    epoch_before = int(sharded.manifest["epochs"][victim])
    sharded.kill_worker(victim)
    started = time.perf_counter()
    promoted = sharded.query(probe, k=k, method="index")
    failover_seconds = time.perf_counter() - started
    found = any(
        n.index == report["id"] and n.similarity == 1.0
        for n in promoted.neighbors
    )
    epoch_after = int(sharded.manifest["epochs"][victim])
    return {
        "fault_insert_id": report["id"],
        "fault_killed_shard": victim,
        "fault_promoted_complete": promoted.complete
        and promoted.skipped_shards == [],
        "fault_epoch_moved": epoch_after > epoch_before,
        "fault_acked_write_found": found,
        "fault_failover_seconds": round(failover_seconds, 6),
        "fault_ok": (
            promoted.complete
            and promoted.skipped_shards == []
            and epoch_after > epoch_before
            and found
        ),
    }
