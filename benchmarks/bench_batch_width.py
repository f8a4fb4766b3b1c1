"""Benchmark: batch width x collection size x kernel for the batch engine.

The batch engine's cost model (``core/batch.py::_choose_kernel``) picks
one of three intersection-counting kernels per batch.  This sweep is
the measurement its constants are derived from (EXPERIMENTS.md "Batch
width x kernel"): for every batch width and collection size it times,
on one :class:`~repro.core.indexed.IndexedSearcher` over the
benchmark's own shape (``ecg_workload``, length 128, sigma=3,
epsilon=0.58, k=10),

- the scalar ``IndexedSearcher.query`` loop,
- ``BatchQueryEngine(kernel="auto")`` (recording the kernel it picked),
- each forced kernel (``dense``, ``bitset``, ``sparse``),

as the median wall time of back-to-back calls divided by the width, and
checks every answer hex-identical across kernels and to the scalar
loop.  The median of *back-to-back* calls is deliberate: a one-row
product handed to a threaded BLAS stalls on exactly that call pattern,
and a best-of-N would hide it.

It exits non-zero when answers differ, when ``auto`` records ``dense``
for a width-1 batch, or when ``auto`` is slower than ``--tolerance``
(default 1.25) times the fastest forced kernel or than the scalar loop
at any point.  Run standalone (a few minutes at the defaults)::

    PYTHONPATH=src python benchmarks/bench_batch_width.py

or small, as a smoke run::

    PYTHONPATH=src python benchmarks/bench_batch_width.py \
        --series 1500 --widths 1,2,8 --calls 10 --output -
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro import STS3Database, __version__
from repro.core.batch import BatchQueryEngine
from repro.data.workloads import ecg_workload

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch_width.json"
FORCED = ("dense", "bitset", "sparse")


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--series", type=_ints, default=[4000, 10_000, 20_000],
                        help="comma-separated collection sizes")
    parser.add_argument("--widths", type=_ints,
                        default=[1, 2, 3, 4, 6, 8, 16, 32, 64],
                        help="comma-separated batch widths")
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--sigma", type=float, default=3)
    parser.add_argument("--epsilon", type=float, default=0.58)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--calls", type=int, default=30,
                        help="timed back-to-back calls per point (the "
                             "median is recorded)")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="exit non-zero when auto is slower than this "
                             "multiple of the fastest forced kernel or of "
                             "the scalar loop")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON result path ('-' to skip writing)")
    return parser


def _hex(results) -> list:
    return [
        [(n.index, float(n.similarity).hex()) for n in r.neighbors]
        for r in results
    ]


def _median_ms_per_query(call, batches, calls: int) -> float:
    """Median wall time of ``calls`` back-to-back calls, per query."""
    times = []
    for i in range(calls):
        batch = batches[i % len(batches)]
        start = time.perf_counter()
        call(batch)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3 / len(batches[0])


def sweep_collection(args: argparse.Namespace, n_series: int) -> list[dict]:
    pool = max(args.widths) * 2
    workload = ecg_workload(n_series, pool, args.length, seed=args.seed)
    db = STS3Database(
        workload.database, sigma=args.sigma, epsilon=args.epsilon,
        normalize=False,
    )
    searcher = db.indexed_searcher()
    query_sets = [db.transform_query(q) for q in workload.queries]
    engines = {
        kernel: BatchQueryEngine(searcher, kernel=kernel)
        for kernel in ("auto",) + FORCED
    }
    k = args.k
    rows = []
    for width in args.widths:
        batches = [
            query_sets[lo : lo + width]
            for lo in range(0, pool - width + 1, width)
        ][:8]
        reference = [
            _hex([searcher.query(qs, k=k) for qs in batch]) for batch in batches
        ]
        row = {"n_series": n_series, "width": width, "identical": True}
        row["scalar"] = _median_ms_per_query(
            lambda batch: [searcher.query(qs, k=k) for qs in batch],
            batches, args.calls,
        )
        for kernel, engine in engines.items():
            # Warm: builds the kernel's artifact and grows the workspace.
            answers = [_hex(engine.query_batch(b, k=k)) for b in batches]
            row["identical"] = row["identical"] and answers == reference
            row[kernel] = _median_ms_per_query(
                lambda batch: engine.query_batch(batch, k=k),
                batches, args.calls,
            )
        row["picked"] = engines["auto"].last_kernels[0]
        rows.append(row)
        print(
            f"n={n_series:>6} width={width:>3}  scalar {row['scalar']:6.2f}  "
            f"auto {row['auto']:6.2f} ({row['picked']:>6})  "
            + "  ".join(f"{kern} {row[kern]:6.2f}" for kern in FORCED)
            + f"  identical={row['identical']}",
            flush=True,
        )
    return rows


def verdicts(rows: list[dict], tolerance: float) -> list[str]:
    problems = []
    for row in rows:
        where = f"n={row['n_series']} width={row['width']}"
        if not row["identical"]:
            problems.append(f"{where}: answers differ across kernels")
        if row["width"] == 1 and row["picked"] == "dense":
            problems.append(f"{where}: auto handed BLAS a one-row product")
        best = min(row[kernel] for kernel in FORCED)
        if row["auto"] > tolerance * best:
            problems.append(
                f"{where}: auto {row['auto']:.2f} ms/query > {tolerance}x "
                f"best forced kernel {best:.2f}"
            )
        if row["auto"] > tolerance * row["scalar"]:
            problems.append(
                f"{where}: auto {row['auto']:.2f} ms/query > {tolerance}x "
                f"scalar loop {row['scalar']:.2f}"
            )
    return problems


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rows = []
    for n_series in args.series:
        rows.extend(sweep_collection(args, n_series))
    record = {
        "benchmark": "batch_width",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "unit": "median ms per query over back-to-back calls",
        "workload": {
            "length": args.length, "sigma": args.sigma,
            "epsilon": args.epsilon, "k": args.k, "seed": args.seed,
            "calls": args.calls,
        },
        "rows": [
            {key: round(val, 4) if isinstance(val, float) else val
             for key, val in row.items()}
            for row in rows
        ],
    }
    if str(args.output) != "-":
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    problems = verdicts(rows, args.tolerance)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
