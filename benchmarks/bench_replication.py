"""Benchmark gate: WAL-shipping replication (docs/replication.md).

Runs :func:`repro.bench.replication.run_replication_phase` on one
shard with N followers and enforces the two contracts followers exist
for (they serve no reads — they mirror the primary and take over):

1. **lag convergence**: after a write burst every live follower's
   ``lag_records`` is exactly 0 (shipping is inline with the ack),
2. **failover**: the primary-kill drill (acked insert → SIGKILL
   primary → next query promotes a follower, stays complete, moves the
   fencing epoch, and finds the insert) must pass.

CI runs the gate in job ``replication``::

    PYTHONPATH=src python benchmarks/bench_replication.py --replicas 2

Both gates hold on any machine.  Results append a ``replication``
phase to ``BENCH_trajectory.json`` alongside the lever phases, keeping
the trend diffable across PRs.
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
from repro.bench.replication import run_replication_phase

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_replication.json"
DEFAULT_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"

TRAJECTORY_SCHEMA = 1

_SUMMARY_KEYS = (
    "shards",
    "replicas",
    "available_cores",
    "max_lag_records",
    "lag_converged",
    "fault_ok",
    "fault_failover_seconds",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--series", type=int, default=4000)
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--sigma", type=float, default=3)
    parser.add_argument("--epsilon", type=float, default=0.58)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--writes", type=int, default=16,
                        help="write-burst size for the lag-convergence check")
    parser.add_argument("--no-faults", action="store_true",
                        help="skip the primary-kill failover drill")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON result path ('-' to skip writing)")
    parser.add_argument("--trajectory", type=Path, default=DEFAULT_TRAJECTORY,
                        help="append-only run history path ('-' to skip)")
    return parser


def append_trajectory(record: dict, args, path: Path) -> None:
    """Append the replication phase to the shared run history."""
    history = {"schema": TRAJECTORY_SCHEMA, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                history["runs"] = loaded["runs"]
        except (json.JSONDecodeError, OSError):
            print(f"warning: {path} unreadable, starting a fresh trajectory")
    summary = {key: record[key] for key in _SUMMARY_KEYS if key in record}
    history["runs"].append({
        "schema": TRAJECTORY_SCHEMA,
        "benchmark": "replication",
        "phase": "replication",
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
            "length": args.length,
            "sigma": args.sigma,
            "epsilon": args.epsilon,
            "k": args.k,
            "seed": args.seed,
            "shards": args.shards,
            "replicas": args.replicas,
            "writes": args.writes,
        },
        "summary": summary,
    })
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended replication phase entry to {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(
        f"replication phase: {args.shards} shard(s) x {args.replicas} "
        f"follower(s) — {args.series} series, length {args.length}, "
        f"k={args.k}",
        flush=True,
    )
    record = run_replication_phase(
        n_series=args.series, length=args.length,
        sigma=args.sigma, epsilon=args.epsilon, k=args.k, seed=args.seed,
        shards=args.shards, replicas=args.replicas,
        writes=args.writes, check_faults=not args.no_faults,
    )
    print(
        f"   lag: {record['followers_live']} follower(s) live after "
        f"{record['writes']} writes, max lag "
        f"{record['max_lag_records']} record(s)   "
        f"converged={record['lag_converged']}"
    )
    if not args.no_faults:
        print(
            f"   failover: killed shard {record['fault_killed_shard']} after "
            f"acked insert #{record['fault_insert_id']} — complete="
            f"{record['fault_promoted_complete']} epoch_moved="
            f"{record['fault_epoch_moved']} found="
            f"{record['fault_acked_write_found']} in "
            f"{record['fault_failover_seconds']}s"
        )

    result = {
        "benchmark": "replication",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "workload": {
            "n_series": args.series,
            "length": args.length,
            "sigma": args.sigma,
            "epsilon": args.epsilon,
            "k": args.k,
            "seed": args.seed,
            "shards": args.shards,
            "replicas": args.replicas,
            "writes": args.writes,
        },
        "phases": [record],
    }
    if str(args.output) != "-":
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    if str(args.trajectory) != "-":
        append_trajectory(record, args, args.trajectory)

    if not record["lag_converged"]:
        print(
            f"FAIL: follower lag did not converge to 0 "
            f"(max {record['max_lag_records']} record(s), "
            f"{record['followers_live']} follower(s) live)",
            file=sys.stderr,
        )
        return 1
    if not args.no_faults and not record["fault_ok"]:
        print("FAIL: primary-kill failover drill failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
