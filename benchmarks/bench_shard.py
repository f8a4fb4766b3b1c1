"""Benchmark gate: the sharded multi-process engine (docs/sharding.md).

Runs :func:`repro.bench.shard.run_shard_phase` — batch k-NN throughput
of an N-shard :class:`~repro.core.shard.ShardedDatabase` against the
single-process engine on the same workload — and enforces the three
contracts of the sharding PR:

1. **bit-identity**: every sharded answer equals the single-process
   answer exactly (similarities compared as ``float.hex``); a mismatch
   fails the run regardless of speed,
2. **no acked write lost**: the worker-kill drill (acked insert →
   SIGKILL owner → degraded query naming the shard → recovered query
   finding the insert) must pass,
3. **throughput**: with ``--min-shard-speedup`` set, the N-shard
   batch must beat the single-process batch by that factor.

CI runs the gate on a 4-vCPU runner (job ``perf-shards``)::

    PYTHONPATH=src python benchmarks/bench_shard.py \
        --shards 4 --min-shard-speedup 2.0

The speedup floor only makes sense when the runner has at least as
many cores as shards; the identity and fault gates hold anywhere (the
record's ``available_cores`` says what the machine could do).  Results
append a ``shard`` phase to ``BENCH_trajectory.json`` alongside the
lever phases, keeping the trend diffable across PRs.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.bench.shard import run_shard_phase

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shard.json"
DEFAULT_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"

TRAJECTORY_SCHEMA = 1

_SUMMARY_KEYS = (
    "shard_speedup",
    "sharded_queries_per_second",
    "single_queries_per_second",
    "shards",
    "available_cores",
    "blas_threads_per_worker",
    "fault_ok",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--series", type=int, default=4000)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--sigma", type=float, default=3)
    parser.add_argument("--epsilon", type=float, default=0.58)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--no-faults", action="store_true",
                        help="skip the worker-kill recovery drill")
    parser.add_argument("--min-shard-speedup", type=float, default=None,
                        help="fail unless sharded/single >= this factor "
                             "(only meaningful with cores >= shards)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON result path ('-' to skip writing)")
    parser.add_argument("--trajectory", type=Path, default=DEFAULT_TRAJECTORY,
                        help="append-only run history path ('-' to skip)")
    return parser


def append_trajectory(record: dict, args, path: Path) -> None:
    """Append the shard phase to the shared run history (append-only)."""
    history = {"schema": TRAJECTORY_SCHEMA, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                history["runs"] = loaded["runs"]
        except (json.JSONDecodeError, OSError):
            print(f"warning: {path} unreadable, starting a fresh trajectory")
    summary = {key: record[key] for key in _SUMMARY_KEYS if key in record}
    summary["identical_neighbor_lists"] = record["identical_neighbor_lists"]
    history["runs"].append({
        "schema": TRAJECTORY_SCHEMA,
        "benchmark": "shard",
        "phase": "shard",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": __version__,
        },
        "workload": {
            "n_series": args.series,
            "n_queries": args.queries,
            "length": args.length,
            "sigma": args.sigma,
            "epsilon": args.epsilon,
            "k": args.k,
            "seed": args.seed,
            "shards": args.shards,
        },
        "summary": summary,
    })
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended shard phase entry to {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(
        f"shard phase: {args.shards} shards — {args.series} series x "
        f"{args.queries} queries, length {args.length}, k={args.k}",
        flush=True,
    )
    record = run_shard_phase(
        n_series=args.series, n_queries=args.queries, length=args.length,
        sigma=args.sigma, epsilon=args.epsilon, k=args.k, seed=args.seed,
        repeats=args.repeats, shards=args.shards,
        check_faults=not args.no_faults,
    )
    print(
        f"   shard: {record['shard_speedup']:.2f}x "
        f"({record['shards']} shards × {record['blas_threads_per_worker']} "
        f"BLAS thread(s) on {record['available_cores']} cores, "
        f"{record['sharded_queries_per_second']} q/s vs "
        f"{record['single_queries_per_second']} q/s)   "
        f"identical={record['identical_neighbor_lists']}"
    )
    if not args.no_faults:
        print(
            f"   fault: killed shard {record['fault_killed_shard']} after "
            f"acked insert #{record['fault_insert_id']} — degraded="
            f"{record['fault_degraded_first']} recovered="
            f"{record['fault_recovered_complete']} found="
            f"{record['fault_acked_write_found']}"
        )

    result = {
        "benchmark": "shard",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "workload": {
            "n_series": args.series,
            "n_queries": args.queries,
            "length": args.length,
            "sigma": args.sigma,
            "epsilon": args.epsilon,
            "k": args.k,
            "seed": args.seed,
            "shards": args.shards,
        },
        "phases": [record],
    }
    if str(args.output) != "-":
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    if str(args.trajectory) != "-":
        append_trajectory(record, args, args.trajectory)

    if not record["identical_neighbor_lists"]:
        print(
            "FAIL: sharded answers differ from the single-process engine",
            file=sys.stderr,
        )
        return 1
    if not args.no_faults and not record["fault_ok"]:
        print("FAIL: worker-kill recovery drill failed", file=sys.stderr)
        return 1
    if args.min_shard_speedup is not None:
        measured = record["shard_speedup"]
        if measured < args.min_shard_speedup:
            print(
                f"FAIL: shard speedup {measured:.2f}x below required "
                f"{args.min_shard_speedup:.2f}x "
                f"({record['available_cores']} cores available)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
