"""Benchmark: grid x batch width x collection size x regime, batch engine.

The batch engine's cost model (``core/batch.py::_prices``) picks one of
three intersection-counting regimes per batch.  This sweep is the
measurement its constants are derived from (EXPERIMENTS.md "Batch width
x kernel" and "One fallback"): for every grid, collection size and batch
width it times, on one :class:`~repro.core.indexed.IndexedSearcher` over
``ecg_workload`` series of length 128 (k=10),

- the scalar ``IndexedSearcher.query`` loop,
- ``BatchQueryEngine(kernel="auto")`` (recording the regime it picked),
- each forced kernel (``dense``, ``bitset``) whose matrix fits the
  engine's ``dense_limit`` (a gated one reads ``null``),
- the postings regime (``dense_limit=0`` gates both matrices out),

as the median wall time of back-to-back calls divided by the width, and
checks every answer hex-identical across regimes and to the scalar
loop.  The default grids span the parameter space: the end-to-end
benchmark's sigma=3 epsilon=0.58, a finer epsilon, a fine grid where
intersections are sparse, and a coarse one where every series shares
nearly every cell.  The median of *back-to-back* calls is deliberate: a
one-row product handed to a threaded BLAS stalls on exactly that call
pattern, and a best-of-N would hide it.  Each point's calls run in
``ROUNDS`` blocks, every regime taking one block of back-to-back calls
per round, so a slow spell of a shared machine lands on all regimes
rather than on whichever ran during it.

It exits non-zero when answers differ, when ``auto`` records ``dense``
for a width-1 batch, or when ``auto`` is slower than ``--tolerance``
(default 1.25) times the fastest regime or than the scalar loop at any
point.  Run standalone (about ten minutes on 2 cores at the defaults)::

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
FORCED = ("dense", "bitset")
#: every regime ``auto`` can pick: the forced kernels and the postings
#: counter (reached by gating both matrices out with ``dense_limit=0``).
REGIMES = FORCED + ("postings",)
#: blocks each point's calls are split into (see the module docstring).
ROUNDS = 3


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _grids(text: str) -> list[tuple[float, float]]:
    """``sigma:epsilon`` pairs, comma-separated."""
    grids = []
    for part in text.split(","):
        if part:
            sigma, epsilon = part.split(":")
            grids.append((float(sigma), float(epsilon)))
    return grids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--series", type=_ints, default=[4000, 20_000],
                        help="comma-separated collection sizes")
    parser.add_argument("--widths", type=_ints,
                        default=[1, 2, 3, 4, 6, 8, 16, 32, 64],
                        help="comma-separated batch widths")
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--grids", type=_grids,
                        default=[(3, 0.58), (3, 0.2), (1, 0.1), (16, 1.5)],
                        help="comma-separated sigma:epsilon grids")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--calls", type=int, default=30,
                        help="timed back-to-back calls per point (the "
                             "median is recorded)")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="exit non-zero when auto is slower than this "
                             "multiple of the fastest regime or of the "
                             "scalar loop")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON result path ('-' to skip writing)")
    return parser


def _hex(results) -> list:
    return [
        [(n.index, float(n.similarity).hex()) for n in r.neighbors]
        for r in results
    ]


def _median_ms_per_query(calls: dict, batches, n_calls: int) -> dict:
    """Median wall time per query of each of ``calls``, over ``n_calls``
    calls split into ``ROUNDS`` interleaved blocks of back-to-back calls."""
    times = {name: [] for name in calls}
    for _ in range(ROUNDS):
        for name, call in calls.items():
            for i in range(max(1, n_calls // ROUNDS)):
                batch = batches[i % len(batches)]
                start = time.perf_counter()
                call(batch)
                times[name].append(time.perf_counter() - start)
    return {
        name: statistics.median(spent) * 1e3 / len(batches[0])
        for name, spent in times.items()
    }


def sweep_collection(
    args: argparse.Namespace, workload, grid: tuple[float, float]
) -> list[dict]:
    sigma, epsilon = grid
    pool = len(workload.queries)
    n_series = len(workload.database)
    db = STS3Database(
        workload.database, sigma=sigma, epsilon=epsilon, normalize=False,
    )
    searcher = db.indexed_searcher()
    query_sets = [db.transform_query(q) for q in workload.queries]
    auto = BatchQueryEngine(searcher)
    # A forced kernel is timed only where its matrix fits the engine's
    # dense_limit: beyond it auto never offers it, and the one-hot of a
    # fine grid would need gigabytes.
    feasible = auto._prices(2, 0, 1)
    engines = {"auto": auto}
    for kernel in FORCED:
        if kernel in feasible:
            engines[kernel] = BatchQueryEngine(searcher, kernel=kernel)
    engines["postings"] = BatchQueryEngine(searcher, dense_limit=0)
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
        row = {
            "sigma": sigma, "epsilon": epsilon, "n_series": n_series,
            "width": width, "identical": True,
        }
        calls = {
            "scalar": lambda batch: [searcher.query(qs, k=k) for qs in batch],
        }
        for kernel in ("auto",) + REGIMES:
            engine = engines.get(kernel)
            if engine is None:
                row[kernel] = None
                continue
            # Warm: builds the kernel's artifact and grows the workspace.
            answers = [_hex(engine.query_batch(b, k=k)) for b in batches]
            row["identical"] = row["identical"] and answers == reference
            calls[kernel] = lambda batch, engine=engine: engine.query_batch(
                batch, k=k
            )
        row.update(_median_ms_per_query(calls, batches, args.calls))
        row["picked"] = engines["auto"].last_kernels[0]
        rows.append(row)
        print(
            f"sigma={sigma:g} eps={epsilon:g} n={n_series:>6} width={width:>3}  "
            f"scalar {row['scalar']:6.2f}  "
            f"auto {row['auto']:6.2f} ({row['picked']:>8})  "
            + "  ".join(
                f"{regime} {'-' if row[regime] is None else f'{row[regime]:.2f}':>6}"
                for regime in REGIMES
            )
            + f"  identical={row['identical']}",
            flush=True,
        )
    return rows


def verdicts(rows: list[dict], tolerance: float) -> list[str]:
    problems = []
    for row in rows:
        where = (
            f"sigma={row['sigma']:g} eps={row['epsilon']:g} "
            f"n={row['n_series']} width={row['width']}"
        )
        if not row["identical"]:
            problems.append(f"{where}: answers differ across regimes")
        if row["width"] == 1 and row["picked"] == "dense":
            problems.append(f"{where}: auto handed BLAS a one-row product")
        best = min(row[regime] for regime in REGIMES if row[regime] is not None)
        if row["auto"] > tolerance * best:
            problems.append(
                f"{where}: auto {row['auto']:.2f} ms/query > {tolerance}x "
                f"best regime {best:.2f}"
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
    pool = max(args.widths) * 2
    for n_series in args.series:
        workload = ecg_workload(n_series, pool, args.length, seed=args.seed)
        for grid in args.grids:
            rows.extend(sweep_collection(args, workload, grid))
    record = {
        "benchmark": "batch_width",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "unit": "median ms per query over back-to-back calls",
        "workload": {
            "length": args.length, "k": args.k, "seed": args.seed,
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
