"""The shard lever: scatter-gather throughput vs the in-process engine.

One phase, three verdicts (docs/sharding.md):

- **throughput** — batch k-NN queries/second of an N-shard
  :class:`~repro.core.shard.ShardedDatabase` against the same batch on
  the single-process engine run serially.  Shards are whole processes,
  the engine's one way to use more cores; the CI gate asserts ≥2x at
  4 shards on the 4-vCPU runner.
- **bit-identity** — every sharded answer must equal the
  single-process answer bit for bit (similarities compared by
  ``float.hex``, never a tolerance), the scatter-gather correctness
  contract.
- **fault recovery** — an acked insert must survive its worker being
  SIGKILLed: the next query degrades (names the dead shard in
  ``skipped_shards``) while the engine restarts the worker, and the
  query after that is complete again and finds the inserted series.

Wired into ``sts3 shard-bench`` and ``benchmarks/bench_shard.py`` (the
CI gate).  The record carries ``available_cores`` so a ~1.0x run on a
one-core machine reads as the hardware ceiling it is, not a
regression, and ``blas_threads_per_worker`` (what the workers report,
None when their BLAS thread count cannot be set) so the core budget
the run actually used — shards × BLAS threads — is on record too.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from ..core import STS3Database
from ..core.executor import available_cpu_count
from ..core.shard import ShardedDatabase
from .levers import _best_of

__all__ = ["run_shard_phase"]


def _hex_answers(results) -> list:
    """Neighbor lists with similarities as exact hex — bitwise compare."""
    return [
        [(n.index, float(n.similarity).hex()) for n in r.neighbors]
        for r in results
    ]


def run_shard_phase(
    n_series: int = 4000,
    n_queries: int = 64,
    length: int = 128,
    sigma: float = 3,
    epsilon: float = 0.58,
    k: int = 10,
    seed: int = 42,
    repeats: int = 3,
    shards: int = 4,
    directory: str | Path | None = None,
    check_faults: bool = True,
) -> dict:
    """Benchmark and verify the sharded engine; returns the phase record.

    ``directory`` hosts the sharded archive (a temporary one by
    default).  ``check_faults=False`` skips the worker-kill drill
    (useful when timing repeatedly on one archive).
    """
    rng = np.random.default_rng(seed)
    base = [rng.normal(size=length) for _ in range(n_series)]
    queries = [rng.normal(size=length) for _ in range(n_queries)]

    single = STS3Database(base, sigma=sigma, epsilon=epsilon, normalize=False)
    single.query_batch(queries[:4], k=k, method="index")  # warm caches
    single_results = single.query_batch(queries, k=k, method="index")
    single_seconds = _best_of(
        lambda: single.query_batch(queries, k=k, method="index"), repeats
    )

    tmp = None
    if directory is None:
        tmp = tempfile.TemporaryDirectory(prefix="sts3-shard-bench-")
        directory = Path(tmp.name) / "shards"
    try:
        sharded = ShardedDatabase.from_database(single, shards, directory)
        single.close()
        try:
            sharded.query_batch(queries[:4], k=k, method="index")  # warm workers
            sharded_results = sharded.query_batch(queries, k=k, method="index")
            sharded_seconds = _best_of(
                lambda: sharded.query_batch(queries, k=k, method="index"),
                repeats,
            )
            identical = _hex_answers(single_results) == _hex_answers(
                sharded_results
            )
            complete = all(r.complete for r in sharded_results)
            blas = sharded.status()["per_shard"][0].get("blas_threads")
            record = {
                "phase": "shard",
                "n_series": n_series,
                "n_queries": n_queries,
                "k": k,
                "shards": shards,
                "available_cores": available_cpu_count(),
                "blas_threads_per_worker": blas,
                "single_seconds": round(single_seconds, 6),
                "sharded_seconds": round(sharded_seconds, 6),
                "shard_speedup": round(single_seconds / sharded_seconds, 3),
                "single_queries_per_second": round(
                    n_queries / single_seconds, 2
                ),
                "sharded_queries_per_second": round(
                    n_queries / sharded_seconds, 2
                ),
                "identical_neighbor_lists": identical,
                "all_complete": complete,
            }
            if check_faults:
                record.update(_fault_drill(sharded, rng, length, k))
            return record
        finally:
            sharded.close()
    finally:
        if tmp is not None:
            tmp.cleanup()


def _fault_drill(sharded: ShardedDatabase, rng, length: int, k: int) -> dict:
    """Kill the worker owning a fresh acked insert; verify the contract.

    Expected sequence: the post-kill query is degraded and names the
    dead shard; the worker restarts behind it (replaying its WAL); the
    follow-up query is complete and finds the inserted series at
    exactly similarity 1.0 under its acked id.
    """
    probe = rng.normal(size=length) * 8.0  # out-of-bound: exercises the buffer
    report = sharded.insert(probe)
    victim = report["shard"]
    sharded.kill_worker(victim)
    started = time.perf_counter()
    degraded = sharded.query(probe, k=k, method="index")
    recovered = sharded.query(probe, k=k, method="index")
    recovery_seconds = time.perf_counter() - started
    found = any(
        n.index == report["id"] and n.similarity == 1.0
        for n in recovered.neighbors
    )
    return {
        "fault_insert_id": report["id"],
        "fault_killed_shard": victim,
        "fault_degraded_first": not degraded.complete
        and f"shard-{victim}" in degraded.skipped_shards,
        "fault_recovered_complete": recovered.complete,
        "fault_acked_write_found": found,
        "fault_recovery_seconds": round(recovery_seconds, 6),
        "fault_ok": (
            not degraded.complete
            and f"shard-{victim}" in degraded.skipped_shards
            and recovered.complete
            and found
        ),
    }
