"""Benchmark: scalar per-query loop vs the vectorized batch engine.

Measures ``method="index"`` k-NN throughput two ways over the same
workload — a Python loop of scalar :meth:`STS3Database.query` calls,
and one :meth:`STS3Database.query_batch` call through
:class:`repro.core.batch.BatchQueryEngine` — verifies the two return
byte-identical neighbour lists, and records both throughputs in
``BENCH_batch_engine.json`` at the repository root.

The same comparison is repeated with the workload cut into batches of
2 and 4 queries — the widths small coalesced serving windows hand the
engine — and ``--min-speedup`` applies at each of them as well as at
``--queries``: "the engine is never slower than the loop" has to hold
where the engine is actually called, not only at the width it was tuned
at.  Width 1 is not among them: a scalar query *is* a one-query batch,
so it would time the same code on both sides; the width-1 gate against
Algorithm 3's reference loop is ``benchmarks/bench_batch_width.py``'s.

It doubles as the observability-overhead guard: the batch run is
repeated with a live :class:`repro.obs.Tracer` installed, the JSON
gains the per-stage (``filter`` / ``refine`` / ``select_topk``)
breakdown of the traced run, and the benchmark fails when tracing
costs more than ``--max-trace-overhead`` (default 5%) over the
untraced run.  A microbenchmark of the disabled (no-op) span path is
also recorded and multiplied by the spans one traced scalar query
enters, confirming the always-on instrumentation stays under 2% of
scalar query time.

It also measures the insert-heavy path of the segmented storage
engine: flushing a full update buffer seals it as a new segment in
O(buffer) transform work, where the pre-segmented engine re-transformed
the whole database.  The benchmark times a seal (``flush``) against
the equivalent full rebuild (``compact``), verifies through the
``sts3_transforms_total`` counter that the seal did zero transform
work, checks query answers are bit-identical before and after both
operations, and fails when the seal is not at least
``--min-flush-speedup`` times faster than the rebuild.

It also runs a kernel ablation on a dense-overlap workload (small
shared vocabulary, coarse grid): the dense and bitset batch kernels
and a loop of scalar ``IndexedSearcher.query`` calls (Algorithm 3's
postings counter, which ``auto`` falls back to) are timed on identical
queries, answers are checked bit-identical, and the run fails when the
bitset kernel is not faster than the loop (``--min-bitset-speedup``
raises the floor).

Every run additionally *appends* a machine-tagged summary to
``BENCH_trajectory.json`` (``--trajectory``; schema-versioned,
append-only), so performance across PRs stays diffable even though
``BENCH_batch_engine.json`` is overwritten in place.

Run standalone (defaults reproduce the acceptance workload: 10,000
database series, 200 queries, k=10)::

    PYTHONPATH=src python benchmarks/bench_batch_engine.py

or as a CI perf-smoke on a small workload, failing when the batch
engine is slower than the scalar loop, sealing is not faster than
rebuilding, or the bitset kernel loses to the scalar loop::

    PYTHONPATH=src python benchmarks/bench_batch_engine.py \
        --series 1500 --queries 60 --repeats 5 --min-speedup 1.0 \
        --insert-series 1200 --insert-buffer 48 --min-flush-speedup 2.0 \
        --bitset-series 2000 --bitset-queries 48 --min-bitset-speedup 1.0
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import STS3Database, __version__, aggregate_stats
from repro.bench import run_traced
from repro.core.batch import BatchQueryEngine
from repro.data.workloads import ecg_workload
from repro.obs import Tracer, span, use_tracer

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch_engine.json"
DEFAULT_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"

#: batch widths, besides ``--queries``, at which ``--min-speedup`` applies.
THIN_WIDTHS = (2, 4)

#: trajectory schema version — bump only on incompatible entry changes;
#: readers must skip entries with a newer schema than they understand.
TRAJECTORY_SCHEMA = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--series", type=int, default=10_000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--length", type=int, default=256)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--sigma", type=float, default=3)
    parser.add_argument("--epsilon", type=float, default=0.58)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions; best (min) time is recorded")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when batch/scalar speedup falls below")
    parser.add_argument("--max-trace-overhead", type=float, default=0.05,
                        help="exit non-zero when enabling tracing slows the "
                             "batch run by more than this fraction "
                             "(negative disables the guard)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON result path ('-' to skip writing)")
    parser.add_argument("--insert-series", type=int, default=4000,
                        help="database size for the insert-heavy workload")
    parser.add_argument("--insert-buffer", type=int, default=64,
                        help="buffered inserts sealed per flush")
    parser.add_argument("--min-flush-speedup", type=float, default=None,
                        help="exit non-zero when sealing a buffer is not at "
                             "least this many times faster than the "
                             "equivalent full rebuild (compact)")
    parser.add_argument("--bitset-series", type=int, default=4000,
                        help="database size for the dense-overlap kernel "
                             "ablation")
    parser.add_argument("--bitset-queries", type=int, default=64,
                        help="query batch size for the kernel ablation")
    parser.add_argument("--min-bitset-speedup", type=float, default=None,
                        help="exit non-zero when the bitset kernel is not at "
                             "least this many times faster than the scalar "
                             "IndexedSearcher loop on the dense-overlap "
                             "workload")
    parser.add_argument("--trajectory", type=Path, default=DEFAULT_TRAJECTORY,
                        help="append-only run history path ('-' to skip)")
    return parser


def _neighbor_lists(results):
    return [[(n.index, n.similarity) for n in r.neighbors] for r in results]


def _noop_span_cost(iterations: int = 200_000) -> float:
    """Seconds per disabled (no-op) span enter/exit pair."""
    start = time.perf_counter()
    for _ in range(iterations):
        with span("noop_probe"):
            pass
    return (time.perf_counter() - start) / iterations


def _spans_per_query(db: STS3Database, query, k: int) -> int:
    """Spans one scalar ``index`` query enters, counted from a traced run."""
    with use_tracer(Tracer()) as tracer:
        db.query(query, k=k, method="index")
    return sum(tracer.stage_counts().values())


def run_insert_workload(args: argparse.Namespace) -> dict:
    """Time sealing a full buffer (flush) against a full rebuild (compact).

    Before the segmented engine a flush re-transformed every stored
    series; ``compact()`` still does exactly that work (it re-derives
    the bound and rebuilds one merged segment), so flush-vs-compact is
    a like-for-like O(buffer) vs O(database) comparison on identical
    state.  Answers are checked bit-identical across buffered → sealed
    → compacted, and the ``sts3_transforms_total`` counter proves the
    seal performed zero transform work.
    """
    from repro.obs import MetricsRegistry, get_registry, set_registry

    n, b = args.insert_series, args.insert_buffer
    print(
        f"insert workload: {n} series, sealing {b}-element buffers "
        f"({args.repeats} repeats)",
        flush=True,
    )
    previous = set_registry(MetricsRegistry())
    try:
        rng = np.random.default_rng(args.seed)
        base = [rng.normal(size=args.length) for _ in range(n)]
        queries = [rng.normal(size=args.length) for _ in range(3)]
        db = STS3Database(
            base, sigma=args.sigma, epsilon=args.epsilon,
            normalize=False, buffer_capacity=b + 1,
        )
        transforms = get_registry().counter("sts3_transforms_total")

        def _total_transforms():
            return sum(
                transforms.value(context=c)
                for c in ("build", "buffer", "extend", "compact", "load")
            )

        def _answers():
            return [
                [(nb.index, nb.similarity) for nb in
                 db.query(q, k=args.k, method="index").neighbors]
                for q in queries
            ]

        flush_best = rebuild_best = float("inf")
        flush_transforms = 0.0
        identical = True
        spike = 100.0
        for _ in range(args.repeats):
            for _ in range(b):
                series = rng.normal(size=args.length)
                series[int(rng.integers(0, args.length))] = spike
                spike += 10.0  # always breaks even the grown bound
                db.insert(series)
            assert len(db.buffer) == b, "inserts flushed early"
            buffered = _answers()

            before = _total_transforms()
            start = time.perf_counter()
            db.flush()
            flush_best = min(flush_best, time.perf_counter() - start)
            flush_transforms = _total_transforms() - before

            identical = identical and _answers() == buffered

            start = time.perf_counter()
            db.compact()
            rebuild_best = min(rebuild_best, time.perf_counter() - start)
            identical = identical and _answers() == buffered
        rebuild_transforms = transforms.value(context="compact") / args.repeats
    finally:
        set_registry(previous)

    speedup = rebuild_best / flush_best
    record = {
        "n_series": n,
        "buffer": b,
        "flush": {
            "seconds": round(flush_best, 6),
            "transforms": flush_transforms,
        },
        "full_rebuild": {
            "seconds": round(rebuild_best, 6),
            "transforms_per_rebuild": rebuild_transforms,
        },
        "flush_speedup": round(speedup, 3),
        "identical_neighbor_lists": identical,
    }
    print(
        f"seal (flush): {flush_best * 1e3:8.2f} ms "
        f"({flush_transforms:.0f} transforms)"
    )
    print(
        f"full rebuild: {rebuild_best * 1e3:8.2f} ms "
        f"(~{rebuild_transforms:.0f} transforms)"
    )
    print(f"seal speedup: {speedup:.1f}x   identical={identical}")
    return record


def run_bitset_ablation(args: argparse.Namespace) -> dict:
    """Time the matrix kernels against the postings loop, dense overlap.

    Short windows under a coarse grid (``sigma=8, epsilon=2.0``) give a
    ~50-cell vocabulary that every series shares, so the postings
    counter's gathered-pair count approaches ``n_queries × total
    postings`` while the whole database packs into one uint64 word per
    series — the regime the bitset kernel exists for.  Answers are
    checked bit-identical across the forced ``dense`` and ``bitset``
    kernels and the scalar ``IndexedSearcher.query`` loop; the recorded
    ``bitset_speedup`` (loop/bitset) backs the CI floor.
    """
    n, q = args.bitset_series, args.bitset_queries
    print(
        f"kernel ablation: {n} series x {q} queries, dense-overlap grid "
        f"({args.repeats} repeats)",
        flush=True,
    )
    workload = ecg_workload(n, q, 64, seed=args.seed)
    db = STS3Database(workload.database, sigma=8, epsilon=2.0)
    searcher = db.indexed_searcher()
    query_sets = [db.transform_query(series) for series in workload.queries]

    timings: dict[str, float] = {}
    answers: dict[str, list] = {}
    runs = {
        "loop": lambda: [searcher.query(qs, k=args.k) for qs in query_sets],
    }
    for kernel in ("dense", "bitset"):
        engine = BatchQueryEngine(searcher, kernel=kernel)
        runs[kernel] = lambda engine=engine: engine.query_batch(query_sets, k=args.k)
    for name, run in runs.items():
        answers[name] = _neighbor_lists(run())
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    auto_engine = BatchQueryEngine(searcher, kernel="auto")
    auto_engine.query_batch(query_sets, k=args.k)

    identical = (
        answers["loop"] == answers["dense"] == answers["bitset"]
    )
    speedup = timings["loop"] / timings["bitset"]
    record = {
        "n_series": n,
        "n_queries": q,
        "distinct_cells": int(searcher.vocabulary().size),
        "kernels_seconds": {k: round(v, 6) for k, v in timings.items()},
        "auto_selected": auto_engine.last_kernels[:1],
        "bitset_speedup": round(speedup, 3),
        "identical_neighbor_lists": identical,
    }
    for name, seconds in timings.items():
        print(f"{name:>7}: {seconds * 1e3:8.2f} ms")
    print(
        f"bitset vs loop: {speedup:.2f}x   identical={identical}   "
        f"auto={record['auto_selected']}"
    )
    return record


def append_trajectory(record: dict, path: Path) -> None:
    """Append this run to the machine-tagged trajectory history.

    The file holds ``{"schema": N, "runs": [...]}`` and is append-only:
    entries are never rewritten, so perf across PRs is diffable.  A
    missing or unreadable file starts a fresh history (the trajectory
    must never block a benchmark run).
    """
    history = {"schema": TRAJECTORY_SCHEMA, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                history["runs"] = loaded["runs"]
        except (json.JSONDecodeError, OSError):
            print(f"warning: {path} unreadable, starting a fresh trajectory")
    entry = {
        "schema": TRAJECTORY_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": __version__,
        },
        "workload": record["workload"],
        "summary": {
            "batch_speedup": record["speedup"],
            "batch_queries_per_second":
                record["batch_engine"]["queries_per_second"],
            "flush_speedup": record["insert_workload"]["flush_speedup"],
            "bitset_speedup": record["bitset_ablation"]["bitset_speedup"],
            "bitset_kernels_seconds":
                record["bitset_ablation"]["kernels_seconds"],
            "trace_overhead": record["traced_run"]["overhead_vs_untraced"],
        },
    }
    history["runs"].append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended run {len(history['runs'])} to {path}")


def run(args: argparse.Namespace) -> dict:
    print(
        f"workload: {args.series} ECG series x {args.queries} queries, "
        f"length {args.length}, sigma={args.sigma}, epsilon={args.epsilon}, "
        f"k={args.k}",
        flush=True,
    )
    workload = ecg_workload(args.series, args.queries, args.length, seed=args.seed)
    db = STS3Database(workload.database, sigma=args.sigma, epsilon=args.epsilon)
    db.indexed_searcher()  # build outside the timed region

    # Warm both paths: first calls fault in index pages, build the
    # dense one-hot matrix, and grow the reusable workspace.
    db.query(workload.queries[0], k=args.k, method="index")
    db.query_batch(workload.queries[: min(8, args.queries)], k=args.k, method="index")
    spans_per_query = _spans_per_query(db, workload.queries[0], args.k)

    # The traced-vs-untraced comparison resolves a ~5% effect, so both
    # sides must see the same noise environment: gc is disabled for the
    # timed region (a collection landing in one loop but not the other
    # once produced a -6% "overhead"), and the scalar, untraced-batch,
    # and traced-batch variants are interleaved inside ONE best-of-N
    # loop so slow drift (page cache, thermal) hits all three equally.
    scalar_best = batch_best = traced_best = float("inf")
    scalar_results = batch_results = traced_results = None
    thin_best = dict.fromkeys(THIN_WIDTHS, float("inf"))
    thin_results: dict[int, list] = {}
    traced_stages: dict = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(args.repeats):
            start = time.perf_counter()
            scalar_results = [
                db.query(q, k=args.k, method="index") for q in workload.queries
            ]
            scalar_best = min(scalar_best, time.perf_counter() - start)

            for width in THIN_WIDTHS:
                start = time.perf_counter()
                thin_results[width] = [
                    result
                    for lo in range(0, args.queries, width)
                    for result in db.query_batch(
                        workload.queries[lo : lo + width], k=args.k, method="index"
                    )
                ]
                thin_best[width] = min(
                    thin_best[width], time.perf_counter() - start
                )

            start = time.perf_counter()
            batch_results = db.query_batch(
                workload.queries, k=args.k, method="index"
            )
            batch_best = min(batch_best, time.perf_counter() - start)

            start = time.perf_counter()
            results, stages = run_traced(
                lambda: db.query_batch(workload.queries, k=args.k, method="index")
            )
            elapsed = time.perf_counter() - start
            if elapsed < traced_best:
                traced_best = elapsed
                traced_results, traced_stages = results, stages
    finally:
        if gc_was_enabled:
            gc.enable()

    identical = all(
        _neighbor_lists(results) == _neighbor_lists(scalar_results)
        for results in (batch_results, *thin_results.values())
    )
    traced_identical = _neighbor_lists(traced_results) == _neighbor_lists(batch_results)
    speedup = scalar_best / batch_best
    thin_speedups = {
        width: scalar_best / seconds for width, seconds in thin_best.items()
    }
    # Tracing can only add work; a measured negative overhead is pure
    # noise.  The floored value is what the gate and trajectory use, the
    # raw value is kept so a too-noisy run (strongly negative) can FAIL
    # the guard instead of silently passing it.
    raw_trace_overhead = traced_best / batch_best - 1.0
    trace_overhead = max(raw_trace_overhead, 0.0)
    noop = _noop_span_cost()
    # Estimate the no-op spans' share of untraced per-query time (the
    # always-on instrumentation's <2% claim).
    noop_fraction = (spans_per_query * noop) / (scalar_best / args.queries)
    stats = aggregate_stats(batch_results)
    engine = db.batch_engine()

    record = {
        "benchmark": "batch_engine",
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
            "method": "index",
        },
        "repeats": args.repeats,
        "scalar_loop": {
            "seconds": round(scalar_best, 6),
            "queries_per_second": round(args.queries / scalar_best, 2),
        },
        "batch_engine": {
            "seconds": round(batch_best, 6),
            "queries_per_second": round(args.queries / batch_best, 2),
            "kernels": engine.last_kernels,
            "workspace_bytes": engine.workspace.nbytes,
        },
        "traced_run": {
            "seconds": round(traced_best, 6),
            "overhead_vs_untraced": round(trace_overhead, 4),
            "raw_overhead_vs_untraced": round(raw_trace_overhead, 4),
            "stages_seconds": {
                name: round(seconds, 6)
                for name, seconds in traced_stages.items()
            },
            "identical_neighbor_lists": traced_identical,
        },
        "noop_span": {
            "seconds_per_span": round(noop, 9),
            "spans_per_scalar_query": spans_per_query,
            "estimated_scalar_query_fraction": round(noop_fraction, 5),
        },
        "speedup": round(speedup, 3),
        "thin_batch_speedups": {
            str(width): round(ratio, 3) for width, ratio in thin_speedups.items()
        },
        "identical_neighbor_lists": identical,
        "aggregate_stats": {
            "candidates": stats.candidates,
            "exact_computations": stats.exact_computations,
            "pruned": stats.pruned,
        },
    }

    print(
        f"scalar loop : {scalar_best * 1e3:8.1f} ms "
        f"({record['scalar_loop']['queries_per_second']:8.1f} q/s)"
    )
    print(
        f"batch engine: {batch_best * 1e3:8.1f} ms "
        f"({record['batch_engine']['queries_per_second']:8.1f} q/s)  "
        f"kernels={engine.last_kernels}"
    )
    print(f"speedup     : {speedup:.2f}x   identical={identical}")
    print(
        "thin batches: "
        + "  ".join(
            f"width {width} {ratio:.2f}x" for width, ratio in thin_speedups.items()
        )
    )
    stage_text = "  ".join(
        f"{name}={seconds * 1e3:.1f}ms" for name, seconds in traced_stages.items()
    )
    print(
        f"traced      : {traced_best * 1e3:8.1f} ms "
        f"(+{trace_overhead:.1%} vs untraced, raw "
        f"{raw_trace_overhead:+.1%})  {stage_text}"
    )
    print(
        f"noop spans  : {noop * 1e9:8.1f} ns/span x {spans_per_query} per query "
        f"(~{noop_fraction:.2%} of scalar query time)"
    )
    record["insert_workload"] = run_insert_workload(args)
    record["bitset_ablation"] = run_bitset_ablation(args)
    return record


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    record = run(args)

    if str(args.output) != "-":
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    if str(args.trajectory) != "-":
        append_trajectory(record, args.trajectory)

    if not record["identical_neighbor_lists"]:
        print("FAIL: batch engine returned different neighbours", file=sys.stderr)
        return 1
    if not record["traced_run"]["identical_neighbor_lists"]:
        print("FAIL: traced run returned different neighbours", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        speedups = {
            str(args.queries): record["speedup"],
            **record["thin_batch_speedups"],
        }
        for width, speedup in speedups.items():
            if speedup < args.min_speedup:
                print(
                    f"FAIL: speedup {speedup:.2f}x at batch width {width} "
                    f"below required {args.min_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
    overhead = record["traced_run"]["overhead_vs_untraced"]
    raw_overhead = record["traced_run"]["raw_overhead_vs_untraced"]
    if args.max_trace_overhead >= 0:
        if overhead > args.max_trace_overhead:
            print(
                f"FAIL: tracing overhead {overhead:.1%} exceeds "
                f"{args.max_trace_overhead:.1%}",
                file=sys.stderr,
            )
            return 1
        if raw_overhead < -args.max_trace_overhead:
            # A traced run this much *faster* than untraced means the
            # measurement is noise — the guard proved nothing.
            print(
                f"FAIL: raw tracing overhead {raw_overhead:.1%} is below "
                f"-{args.max_trace_overhead:.1%}; the comparison is too "
                "noisy to trust",
                file=sys.stderr,
            )
            return 1
    insert = record["insert_workload"]
    if not insert["identical_neighbor_lists"]:
        print(
            "FAIL: answers changed across flush/compact in the insert workload",
            file=sys.stderr,
        )
        return 1
    if insert["flush_speedup"] <= 1.0:
        print(
            f"FAIL: sealing a buffer ({insert['flush']['seconds']}s) was not "
            f"faster than a full rebuild ({insert['full_rebuild']['seconds']}s)",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_flush_speedup is not None
        and insert["flush_speedup"] < args.min_flush_speedup
    ):
        print(
            f"FAIL: flush speedup {insert['flush_speedup']:.1f}x below "
            f"required {args.min_flush_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    ablation = record["bitset_ablation"]
    if not ablation["identical_neighbor_lists"]:
        print(
            "FAIL: kernels disagreed on the dense-overlap workload",
            file=sys.stderr,
        )
        return 1
    if ablation["bitset_speedup"] <= 1.0:
        print(
            f"FAIL: bitset kernel "
            f"({ablation['kernels_seconds']['bitset']}s) was not faster "
            f"than the loop ({ablation['kernels_seconds']['loop']}s) on "
            f"the dense-overlap workload",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_bitset_speedup is not None
        and ablation["bitset_speedup"] < args.min_bitset_speedup
    ):
        print(
            f"FAIL: bitset speedup {ablation['bitset_speedup']:.2f}x below "
            f"required {args.min_bitset_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
