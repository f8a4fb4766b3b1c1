"""Benchmark: the kernel-speed levers (DESIGN.md §13).

Runs the lever phases from :mod:`repro.bench.levers` — zero-copy mapped
archive opens, the query-result cache, and the combined serving
workload — verifies every levered path
returns answers bit-identical to the plain path, writes
``BENCH_levers.json``, and appends one machine-tagged entry *per
phase* to ``BENCH_trajectory.json`` so each lever's trend stays
individually diffable across PRs.

CI runs one lever per matrix leg with a floor (see
``.github/workflows/ci.yml``)::

    PYTHONPATH=src python benchmarks/bench_levers.py \
        --levers mmap --min-mmap-speedup 5.0
    PYTHONPATH=src python benchmarks/bench_levers.py \
        --levers cache --min-cache-speedup 20.0

The floors hold on any machine.  ``--levers`` defaults to every phase
including ``combined`` (the PR's ≥5x queries-per-second acceptance,
assert with ``--min-combined-speedup``).
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
from repro.bench.levers import run_lever_phases

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_levers.json"
DEFAULT_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"

TRAJECTORY_SCHEMA = 1

#: the per-phase summary keys worth tracking across PRs.
_SUMMARY_KEYS = {
    "mmap": ("mmap_open_speedup", "eager_open_seconds", "mmap_open_seconds",
             "first_touch_seconds"),
    "cache": ("cache_hit_speedup", "uncached_seconds", "cached_seconds"),
    "combined": ("combined_speedup", "combined_queries_per_second",
                 "baseline_queries_per_second"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levers", default="mmap,cache,combined",
                        help="comma-separated phases to run")
    parser.add_argument("--series", type=int, default=3000)
    parser.add_argument("--queries", type=int, default=32)
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--sigma", type=float, default=3)
    parser.add_argument("--epsilon", type=float, default=0.58)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--cache-bytes", type=int, default=8 << 20)
    parser.add_argument("--min-mmap-speedup", type=float, default=None)
    parser.add_argument("--min-cache-speedup", type=float, default=None)
    parser.add_argument("--min-combined-speedup", type=float, default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON result path ('-' to skip writing)")
    parser.add_argument("--trajectory", type=Path, default=DEFAULT_TRAJECTORY,
                        help="append-only run history path ('-' to skip)")
    return parser


def append_trajectory(records: list[dict], args, path: Path) -> None:
    """Append one lever-phase entry per record (append-only history)."""
    history = {"schema": TRAJECTORY_SCHEMA, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                history["runs"] = loaded["runs"]
        except (json.JSONDecodeError, OSError):
            print(f"warning: {path} unreadable, starting a fresh trajectory")
    machine = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": __version__,
    }
    for record in records:
        phase = record["phase"]
        summary = {
            key: record[key] for key in _SUMMARY_KEYS[phase] if key in record
        }
        summary["identical_neighbor_lists"] = record["identical_neighbor_lists"]
        history["runs"].append({
            "schema": TRAJECTORY_SCHEMA,
            "benchmark": "levers",
            "phase": phase,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "machine": machine,
            "workload": {
                "n_series": args.series,
                "n_queries": args.queries,
                "length": args.length,
                "sigma": args.sigma,
                "epsilon": args.epsilon,
                "k": args.k,
                "seed": args.seed,
            },
            "summary": summary,
        })
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended {len(records)} phase entries to {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    levers = [lever.strip() for lever in args.levers.split(",") if lever.strip()]
    print(
        f"lever phases: {', '.join(levers)} — {args.series} series x "
        f"{args.queries} queries, length {args.length}, k={args.k}",
        flush=True,
    )
    records = run_lever_phases(
        levers,
        n_series=args.series, n_queries=args.queries, length=args.length,
        sigma=args.sigma, epsilon=args.epsilon, k=args.k, seed=args.seed,
        repeats=args.repeats, cache_bytes=args.cache_bytes,
    )
    for record in records:
        phase = record["phase"]
        headline = {
            "mmap": f"{record.get('mmap_open_speedup', 0):.2f}x open",
            "cache": f"{record.get('cache_hit_speedup', 0):.2f}x hit path",
            "combined": f"{record.get('combined_speedup', 0):.2f}x "
                        f"({record.get('combined_queries_per_second')} q/s)",
        }[phase]
        print(
            f"{phase:>8}: {headline}   "
            f"identical={record['identical_neighbor_lists']}"
        )

    result = {
        "benchmark": "levers",
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
        },
        "phases": records,
    }
    if str(args.output) != "-":
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    if str(args.trajectory) != "-":
        append_trajectory(records, args, args.trajectory)

    by_phase = {record["phase"]: record for record in records}
    for record in records:
        if not record["identical_neighbor_lists"]:
            print(
                f"FAIL: {record['phase']} phase returned different neighbours",
                file=sys.stderr,
            )
            return 1
    floors = (
        ("mmap", "mmap_open_speedup", args.min_mmap_speedup),
        ("cache", "cache_hit_speedup", args.min_cache_speedup),
        ("combined", "combined_speedup", args.min_combined_speedup),
    )
    for phase, key, floor in floors:
        if floor is None or phase not in by_phase:
            continue
        measured = by_phase[phase][key]
        if measured < floor:
            print(
                f"FAIL: {phase} {key} {measured:.2f}x below required "
                f"{floor:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
