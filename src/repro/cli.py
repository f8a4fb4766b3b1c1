"""Command-line interface: ``sts3`` (or ``python -m repro``).

Subcommands:

- ``sts3 info`` — version and component overview.
- ``sts3 datasets`` — the synthetic stand-in registry with paper shapes.
- ``sts3 demo`` — a 30-second end-to-end demonstration on synthetic ECG.
- ``sts3 query`` — build a database from a UCR-format file (or the
  synthetic ECG stream) and answer a k-NN query, printing neighbours.
  ``--trace`` prints the span trace of the query; ``--profile`` prints
  a cProfile report (see ``docs/observability.md``).
- ``sts3 batch`` — answer many k-NN queries at once through the
  vectorized batch engine, printing throughput and aggregate search
  statistics.  ``--trace`` prints the batch's span trace;
  ``--metrics-json PATH`` writes per-stage timings plus the metric
  registry snapshot as JSON.
- ``sts3 inspect`` — open a saved database (``save_database`` archive)
  and print its segment catalog: per-segment sizes, grid shapes,
  resident bytes per set representation (sorted arrays / packed
  bitmaps / coarse levels), buffer occupancy, per-segment checksum
  status, and WAL replay lag (see DESIGN.md §10 on the segmented
  engine, §11 on the packed bitsets, §12 on durability).
- ``sts3 verify`` — offline integrity check of an archive + its WAL:
  per-payload checksum status and WAL frame health, without building
  the database.  Exit code 1 when anything fails verification.
- ``sts3 recover`` — crash recovery: load the archive (quarantining
  corrupt segments), replay the WAL tail, and write a fresh checkpoint
  archive (see docs/durability.md for the runbook).
- ``sts3 bench`` — run the kernel-speed lever phases (zero-copy mapped
  loads, the query-result cache, and the combined serving workload) on a synthetic workload and print a
  per-lever speedup table (``--levers`` picks phases; DESIGN.md §13).
- ``sts3 serve`` — run the asyncio query server (binary protocol +
  HTTP adapter) over a saved archive, a UCR-format file, or a
  synthetic ECG database; request coalescing, deadlines, admission
  control, graceful drain (see docs/serving.md and DESIGN.md §14).
  ``--shards N`` fronts the sharded multi-process engine instead of
  the in-process one (docs/sharding.md); a sharded archive directory
  given as ``file`` is detected and opened sharded automatically.
- ``sts3 shard-bench`` — benchmark the sharded engine against the
  single-process engine on one synthetic workload: throughput, bitwise
  answer identity, and the worker-kill recovery drill
  (docs/sharding.md; the CI gate is ``benchmarks/bench_shard.py``).

The CLI exists so a downstream user can try the system without writing
code; anything deeper should use the library API (see README).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .core.planner import METHODS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``sts3`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="sts3",
        description="Set-based time-series similarity search (SIGMOD'16 STS3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and component overview")
    sub.add_parser("datasets", help="list the synthetic dataset registry")

    demo = sub.add_parser("demo", help="end-to-end demo on synthetic ECG")
    demo.add_argument("--series", type=int, default=200, help="database size")
    demo.add_argument("--length", type=int, default=256, help="series length")
    demo.add_argument("--k", type=int, default=3, help="neighbours to return")
    demo.add_argument("--seed", type=int, default=0)

    query = sub.add_parser("query", help="k-NN query over a UCR-format file")
    query.add_argument("file", help="UCR-format text file (label + values per line)")
    query.add_argument("--query-index", type=int, default=0,
                       help="which series of the file to use as the query")
    query.add_argument("--k", type=int, default=5)
    query.add_argument("--sigma", type=float, default=3,
                       help="time-axis cell width in samples")
    query.add_argument("--epsilon", type=float, default=0.5,
                       help="value-axis cell height")
    query.add_argument("--method", choices=METHODS, default="auto")
    query.add_argument("--trace", action="store_true",
                       help="print the span trace of the query (docs/observability.md)")
    query.add_argument("--profile", action="store_true",
                       help="print a cProfile report of the query call")
    query.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                       help="per-query time budget: segments that would start "
                            "past it are skipped (answer reports "
                            "complete=False and names them)")

    batch = sub.add_parser(
        "batch", help="batched k-NN queries over a UCR-format file"
    )
    batch.add_argument("file", help="UCR-format text file (label + values per line)")
    batch.add_argument("--queries", type=int, default=10,
                       help="use the LAST this-many series as the query batch")
    batch.add_argument("--k", type=int, default=5)
    batch.add_argument("--sigma", type=float, default=3,
                       help="time-axis cell width in samples")
    batch.add_argument("--epsilon", type=float, default=0.5,
                       help="value-axis cell height")
    batch.add_argument(
        "--method", choices=METHODS, default="auto",
        help="auto (calibrated, else index) and index engage the "
             "vectorized batch kernel",
    )
    batch.add_argument("--limit", type=int, default=5,
                       help="print the answers of at most this many queries")
    batch.add_argument("--trace", action="store_true",
                       help="print the span trace of the batch")
    batch.add_argument("--metrics-json", type=str, default=None, metavar="PATH",
                       help="write per-stage timings + metric counters as JSON "
                            "('-' for stdout)")
    batch.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                       help="per-query time budget (see 'sts3 query --deadline-ms')")

    inspect = sub.add_parser(
        "inspect", help="print the segment catalog of a saved database"
    )
    inspect.add_argument("file", help="archive written by save_database")
    inspect.add_argument("--wal", type=str, default=None, metavar="DIR",
                         help="WAL directory (default: <file>.wal)")
    inspect.add_argument("--mmap", action="store_true",
                         help="open the archive zero-copy (v4 only): segments "
                              "stay mapped and the catalog reports their "
                              "on-disk payload bytes instead of resident ones")

    verify = sub.add_parser(
        "verify", help="offline checksum verification of an archive + WAL"
    )
    verify.add_argument("file", help="archive written by save_database")
    verify.add_argument("--wal", type=str, default=None, metavar="DIR",
                        help="WAL directory (default: <file>.wal)")

    recover = sub.add_parser(
        "recover", help="replay the WAL onto the archive and checkpoint"
    )
    recover.add_argument("file", help="archive written by save_database")
    recover.add_argument("--wal", type=str, default=None, metavar="DIR",
                         help="WAL directory (default: <file>.wal)")
    recover.add_argument("--output", type=str, default=None, metavar="PATH",
                         help="write the recovered archive here instead of "
                              "checkpointing over the input")

    join = sub.add_parser(
        "join", help="all-pairs similarity join over a UCR-format file"
    )
    join.add_argument("file", help="UCR-format text file")
    join.add_argument("--threshold", type=float, default=0.7,
                      help="minimum Jaccard similarity for a pair")
    join.add_argument("--sigma", type=float, default=3)
    join.add_argument("--epsilon", type=float, default=0.5)
    join.add_argument("--limit", type=int, default=20,
                      help="print at most this many pairs")

    bench = sub.add_parser(
        "bench", help="run the kernel-speed lever benchmark phases"
    )
    bench.add_argument("--levers", default="mmap,cache,combined",
                       help="comma-separated phases: mmap, cache, combined")
    bench.add_argument("--series", type=int, default=2000,
                       help="database size per phase")
    bench.add_argument("--queries", type=int, default=32)
    bench.add_argument("--length", type=int, default=128)
    bench.add_argument("--k", type=int, default=10)
    bench.add_argument("--sigma", type=float, default=3)
    bench.add_argument("--epsilon", type=float, default=0.58)
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed repetitions; best (min) time is reported")
    bench.add_argument("--cache-bytes", type=int, default=8 << 20,
                       help="result-cache budget for cache/combined")
    bench.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="also write the phase records as JSON "
                            "('-' for stdout)")

    serve = sub.add_parser(
        "serve", help="run the asyncio query server (docs/serving.md)"
    )
    serve.add_argument("file", nargs="?", default=None,
                       help="data to serve: a save_database archive or a "
                            "UCR-format text file (omit for synthetic ECG)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=21335,
                       help="binary-protocol port (0 = ephemeral)")
    serve.add_argument("--http-port", type=int, default=21336,
                       help="HTTP adapter port (0 = ephemeral, -1 = disable)")
    serve.add_argument("--max-coalesce", type=int, default=64,
                       help="most single queries that queue behind a busy "
                            "engine run as one batch (1 disables "
                            "coalescing)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="shed load (BUSY) past this many in-flight "
                            "requests")
    serve.add_argument("--rate", type=float, default=None, metavar="PER_S",
                       help="per-client sustained request rate; over it "
                            "requests fail RATE_LIMITED (default: unlimited)")
    serve.add_argument("--burst", type=int, default=20,
                       help="per-client burst allowance above --rate")
    serve.add_argument("--cache-bytes", type=int, default=0,
                       help="query-result cache budget of the engine "
                            "(0 disables; DESIGN.md §13)")
    serve.add_argument("--sigma", type=float, default=3,
                       help="time-axis cell width (file/synthetic builds)")
    serve.add_argument("--epsilon", type=float, default=0.5,
                       help="value-axis cell height (file/synthetic builds)")
    serve.add_argument("--series", type=int, default=2000,
                       help="synthetic database size (no-file mode)")
    serve.add_argument("--length", type=int, default=128,
                       help="synthetic series length (no-file mode)")
    serve.add_argument("--seed", type=int, default=0,
                       help="synthetic stream seed (no-file mode)")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="serve through the sharded multi-process engine "
                            "with N shard workers (docs/sharding.md); the "
                            "built database is re-partitioned into a "
                            "temporary sharded archive")
    serve.add_argument("--replicas", type=int, default=0, metavar="R",
                       help="WAL-shipping followers per shard "
                            "(docs/replication.md); requires the sharded "
                            "engine (--shards or a sharded archive)")
    serve.add_argument("--maintain", action="store_true",
                       help="run the background maintenance engine while "
                            "serving (docs/maintenance.md)")
    _add_maintenance_flags(serve)
    serve.add_argument("--maint-interval", type=float, default=0.25,
                       metavar="S",
                       help="maintenance wake-up interval in seconds")

    shard_bench = sub.add_parser(
        "shard-bench",
        help="benchmark the sharded engine vs single-process "
             "(docs/sharding.md)",
    )
    shard_bench.add_argument("--shards", type=int, default=4,
                             help="shard worker processes")
    shard_bench.add_argument("--series", type=int, default=4000,
                             help="database size")
    shard_bench.add_argument("--queries", type=int, default=64)
    shard_bench.add_argument("--length", type=int, default=128)
    shard_bench.add_argument("--k", type=int, default=10)
    shard_bench.add_argument("--sigma", type=float, default=3)
    shard_bench.add_argument("--epsilon", type=float, default=0.58)
    shard_bench.add_argument("--seed", type=int, default=42)
    shard_bench.add_argument("--repeats", type=int, default=3,
                             help="timed repetitions; best (min) is reported")
    shard_bench.add_argument("--no-faults", action="store_true",
                             help="skip the worker-kill recovery drill")
    shard_bench.add_argument("--json", type=str, default=None, metavar="PATH",
                             help="also write the phase record as JSON "
                                  "('-' for stdout)")

    replica_status = sub.add_parser(
        "replica-status",
        help="offline replication status of a sharded archive "
             "(docs/replication.md)",
    )
    replica_status.add_argument("dir", help="sharded archive directory")

    maintain = sub.add_parser(
        "maintain",
        help="offline maintenance: merge to the tier fixpoint, enforce "
             "the memory budget, checkpoint (docs/maintenance.md)",
    )
    maintain.add_argument("file", help="archive written by save_database")
    maintain.add_argument("--wal", type=str, default=None, metavar="DIR",
                          help="WAL directory (default: <file>.wal)")
    _add_maintenance_flags(maintain)
    maintain.add_argument("--dry-run", action="store_true",
                          help="report what would merge without writing")
    return parser


def _add_maintenance_flags(parser: argparse.ArgumentParser) -> None:
    """Tiering/budget/cadence knobs shared by ``serve`` and ``maintain``."""
    parser.add_argument("--max-segments", type=int, default=8,
                        help="background merges trigger past this many "
                             "live segments")
    parser.add_argument("--tier-base", type=int, default=64,
                        help="segments below this many series are tier 0")
    parser.add_argument("--fanout", type=int, default=4,
                        help="segments merged per tier step")
    parser.add_argument("--memory-budget", type=int, default=None,
                        metavar="BYTES",
                        help="evict cold segment payloads past this many "
                             "resident bytes (default: unlimited)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="RECORDS",
                        help="checkpoint the archive once this many WAL "
                             "records accumulate past it (archive mode "
                             "only; default: never)")


def _cmd_info() -> int:
    print(f"sts3 {__version__} — Set-based Similarity Search for Time Series")
    print("reproduction of Peng, Wang, Li, Gao (SIGMOD 2016)")
    print()
    print("components: naive / index / pruning / approximate STS3 searchers,")
    print("ED, DTW (+LB_Keogh/LB_Improved cascade), FastDTW, LCSS, FTSE,")
    print("EDR, ERP, PAA baselines; synthetic ECG + UCR-style data substrates.")
    return 0


def _cmd_datasets() -> int:
    from .data.registry import _SPECS  # internal read is fine for listing

    print(f"{'name':<10} {'train':>6} {'test':>6} {'length':>7} {'classes':>8}")
    for spec in _SPECS.values():
        print(
            f"{spec.name:<10} {spec.n_train:>6} {spec.n_test:>6} "
            f"{spec.length:>7} {spec.n_classes:>8}"
        )
    print("\nload with repro.data.load_dataset(name, scale=...); scale=1 is paper size")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import STS3Database
    from .data import ecg_stream, make_workload

    stream = ecg_stream((args.series + 1) * args.length, seed=args.seed)
    workload = make_workload(stream, args.series, 1, args.length)
    db = STS3Database(workload.database, sigma=3, epsilon=0.5)
    query = workload.queries[0]
    print(f"database: {args.series} ECG windows of length {args.length}")
    for method in ("naive", "index", "pruning", "approximate"):
        result = db.query(query, k=args.k, method=method)
        answers = ", ".join(
            f"#{n.index}(J={n.similarity:.3f})" for n in result.neighbors
        )
        print(f"{method:>12}: {answers}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .core import STS3Database
    from .data.loader import load_ucr_file

    dataset = load_ucr_file(args.file)
    if not 0 <= args.query_index < len(dataset):
        print(
            f"error: --query-index {args.query_index} out of range "
            f"(file has {len(dataset)} series)",
            file=sys.stderr,
        )
        return 2
    query = dataset.series[args.query_index]
    database = [s for i, s in enumerate(dataset.series) if i != args.query_index]
    db = STS3Database(database, sigma=args.sigma, epsilon=args.epsilon)
    if args.trace:
        from .obs import Tracer, use_tracer

        with use_tracer(Tracer()) as tracer:
            result = db.query(
                query, k=args.k, method=args.method, deadline_ms=args.deadline_ms
            )
        print("trace (ms, nested):")
        print(tracer.format_tree())
        print()
    elif args.profile:
        from .obs import profile_query

        result, report = profile_query(
            db, query, k=args.k, method=args.method, limit=15
        )
        print(report)
    else:
        result = db.query(
            query, k=args.k, method=args.method, deadline_ms=args.deadline_ms
        )
    print(f"query: series #{args.query_index} of {args.file}")
    if not result.complete:
        print(
            f"DEGRADED ({result.degraded_reason}): "
            f"skipped {', '.join(result.skipped_segments) or 'nothing'}"
        )
    print(f"{'rank':>4}  {'series':>7}  {'label':>6}  Jaccard")
    labels = [l for i, l in enumerate(dataset.labels) if i != args.query_index]
    for rank, n in enumerate(result.neighbors, start=1):
        print(
            f"{rank:>4}  #{n.index:>6}  {labels[n.index]:>6}  {n.similarity:.4f}"
        )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import time

    from .core import STS3Database, aggregate_stats
    from .data.loader import load_ucr_file

    dataset = load_ucr_file(args.file)
    if not 0 < args.queries < len(dataset):
        print(
            f"error: --queries {args.queries} must leave at least one "
            f"database series (file has {len(dataset)} series)",
            file=sys.stderr,
        )
        return 2
    split = len(dataset) - args.queries
    database = list(dataset.series[:split])
    queries = list(dataset.series[split:])
    db = STS3Database(database, sigma=args.sigma, epsilon=args.epsilon)

    tracer = None
    if args.trace or args.metrics_json:
        from .obs import Tracer, set_tracer

        tracer = Tracer()
        previous_tracer = set_tracer(tracer)
    start = time.perf_counter()
    try:
        results = db.query_batch(
            queries, k=args.k, method=args.method,
            deadline_ms=args.deadline_ms,
        )
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            set_tracer(previous_tracer)

    print(
        f"{len(queries)} queries x top-{args.k} over {split} series "
        f"(method={args.method})"
    )
    print(f"elapsed: {elapsed:.3f}s  ({len(queries) / elapsed:.1f} queries/s)")
    stats = aggregate_stats(results)
    print(
        f"aggregate: {stats.exact_computations} exact computations, "
        f"{stats.pruned} pruned ({stats.pruning_rate:.1%})"
    )
    degraded = sum(1 for r in results if not r.complete)
    if degraded:
        reasons = sorted({r.degraded_reason for r in results if not r.complete})
        print(f"DEGRADED: {degraded}/{len(results)} answers ({', '.join(reasons)})")
    for qi, result in enumerate(results[: args.limit]):
        answers = ", ".join(
            f"#{n.index}(J={n.similarity:.3f})" for n in result.neighbors
        )
        print(f"  query {split + qi}: {answers}")
    if len(results) > args.limit:
        print(f"  ... and {len(results) - args.limit} more")
    if tracer is not None:
        _report_batch_observability(args, tracer, stats, elapsed, len(queries))
    return 0


#: span names that partition a batch query's work (docs/observability.md);
#: "tile" is excluded — it is a parent of filter/refine/select_topk and
#: would double-count.
_BATCH_STAGES = (
    "build_index", "plan", "transform", "filter", "refine", "select_topk", "merge"
)


def _report_batch_observability(args, tracer, stats, elapsed, n_queries) -> int:
    """Print the trace and/or write the metrics JSON for ``sts3 batch``."""
    import json

    from .obs import get_registry

    if args.trace:
        print("\ntrace (ms, nested):")
        print(tracer.format_tree())
    if not args.metrics_json:
        return 0
    stage_seconds = tracer.stage_seconds()
    stages = {name: stage_seconds.get(name, 0.0) for name in _BATCH_STAGES}
    # Wall-clock of the query work itself is the query_batch root span;
    # `elapsed` additionally includes tracer setup outside the root.
    wall = stage_seconds.get("query_batch", elapsed)
    covered = sum(stages.values())
    payload = {
        "command": "batch",
        "file": str(args.file),
        "method": args.method,
        "queries": n_queries,
        "k": args.k,
        "wall_seconds": round(elapsed, 6),
        "query_batch_seconds": round(wall, 6),
        "stages_seconds": {k: round(v, 6) for k, v in stages.items()},
        "stage_coverage": round(covered / wall, 4) if wall else 0.0,
        "span_counts": tracer.stage_counts(),
        "aggregate_stats": {
            "candidates": stats.candidates,
            "exact_computations": stats.exact_computations,
            "pruned": stats.pruned,
            "pruning_rate": round(stats.pruning_rate, 6),
            "compression_rate": round(stats.compression_rate, 6),
        },
        "metrics": get_registry().snapshot(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.metrics_json == "-":
        print(text, end="")
    else:
        Path(args.metrics_json).write_text(text)
        print(f"wrote metrics to {args.metrics_json}")
    return 0


def _cmd_inspect_sharded(args: argparse.Namespace) -> int:
    """Sharded-archive inspection: manifest + per-shard offline checks.

    Pure file reads — no shard worker is spawned, so this is safe on a
    directory another process is actively serving.
    """
    from .core import verify_archive
    from .core.shard import ShardedDatabase
    from .exceptions import DatasetError

    try:
        manifest = ShardedDatabase.read_manifest(args.file)
    except Exception as exc:  # noqa: BLE001 - report and exit
        print(f"error: cannot read shard manifest: {exc}", file=sys.stderr)
        return 2
    print(f"sharded database: {args.file}")
    print(
        f"{manifest['series_total']} series across {manifest['shards']} "
        f"shard(s), hash seed {manifest['hash_seed']:#x}, "
        f"{manifest['vnodes']} vnodes/shard, next id {manifest['next_id']}"
    )
    replicas = int(manifest.get("replicas", 0))
    epochs = manifest.get("epochs") or [0] * int(manifest["shards"])
    wal_dirs = manifest.get("wal_dirs") or [None] * int(manifest["shards"])
    if replicas:
        print(f"replication: {replicas} follower(s) per shard")
    print(
        f"{'shard':>5} {'file':<16} {'series':>7} {'payloads':>9} "
        f"{'ckpt seq':>9} {'since ckpt':>11} {'epoch':>6} {'status':>8}"
    )
    problems = 0
    for shard_id, name in enumerate(manifest["files"]):
        path = Path(args.file) / name
        wal_dir = (
            Path(args.file) / wal_dirs[shard_id] if wal_dirs[shard_id] else None
        )
        try:
            report = verify_archive(path, wal_dir=wal_dir)
        except (DatasetError, OSError) as exc:
            print(f"{shard_id:>5} {name:<16} MISSING: {exc}")
            problems += 1
            continue
        n_series = sum(p["n_series"] for p in report["payloads"])
        wal = report["wal"]
        status = "ok" if not report["problems"] else "PROBLEMS"
        problems += len(report["problems"])
        print(
            f"{shard_id:>5} {name:<16} {n_series:>7} "
            f"{len(report['payloads']):>9} {wal['checkpoint_seq']:>9} "
            f"{wal['records_since_checkpoint']:>11} "
            f"{epochs[shard_id]:>6} {status:>8}"
        )
        for problem in report["problems"]:
            print(f"      PROBLEM: {problem}")
    if replicas:
        from .core.replication import replica_mirror_name
        from .core.wal import read_applied_seq, scan_wal

        print(f"{'shard':>5} {'mirror':<26} {'applied':>8} {'frames':>7}")
        for shard_id in range(int(manifest["shards"])):
            for replica_id in range(replicas):
                mirror_name = replica_mirror_name(shard_id, replica_id)
                mirror = Path(args.file) / mirror_name
                if not mirror.exists():
                    print(f"{shard_id:>5} {mirror_name:<26} {'-':>8} {'-':>7}")
                    continue
                applied = read_applied_seq(mirror)
                _, wal_report = scan_wal(mirror)
                print(
                    f"{shard_id:>5} {mirror_name:<26} "
                    f"{applied if applied is not None else '-':>8} "
                    f"{wal_report.records:>7}"
                )
    return 1 if problems else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .core import load_database, shard_manifest_path, verify_archive
    from .exceptions import DatasetError

    if shard_manifest_path(args.file).exists():
        return _cmd_inspect_sharded(args)
    try:
        db = load_database(args.file, mmap=args.mmap)
    except (DatasetError, OSError, ValueError) as exc:
        print(f"error: cannot load {args.file}: {exc}", file=sys.stderr)
        return 2
    catalog = db.catalog
    print(f"database: {args.file}")
    print(
        f"{catalog.n_series} series in {len(catalog.segments)} segment(s), "
        f"{len(db.buffer)} buffered (capacity {db.buffer.capacity}), "
        f"generation {catalog.generation}, {db.rebuild_count} flush(es)"
    )
    from .core.maintenance import MaintenanceConfig, tier_of

    defaults = MaintenanceConfig()
    print(
        f"{'id':>4} {'offset':>7} {'series':>7} {'tier':>4} {'state':>8} "
        f"{'cells':>9} "
        f"{'sorted':>9} {'packed':>9} {'coarse':>9} {'checksum':>10}  "
        f"grid (rows x cols)"
    )
    for row in catalog.describe():
        rows = row["n_rows"]
        rows_text = (
            ",".join(str(r) for r in rows) if isinstance(rows, tuple) else str(rows)
        )
        memory = row["memory"]
        crc = row["payload_crc32"]
        checksum = f"{crc:08x}" if crc is not None else "-"
        tier = tier_of(row["n_series"], defaults.tier_base, defaults.fanout)
        print(
            f"{row['segment_id']:>4} {row['offset']:>7} {row['n_series']:>7} "
            f"{tier:>4} {row['state']:>8} "
            f"{row['n_cells']:>9} "
            f"{_fmt_bytes(memory['sorted_sets_bytes']):>9} "
            f"{_fmt_bytes(memory['packed_bitset_bytes']):>9} "
            f"{_fmt_bytes(memory['coarse_levels_bytes']):>9} "
            f"{checksum:>10}  "
            f"{rows_text} x {row['n_columns']}"
        )
    for record in catalog.quarantined:
        print(
            f"QUARANTINED {record.name}: {record.n_series} series lost "
            f"({record.reason})"
        )
    try:
        report = verify_archive(args.file, wal_dir=args.wal)
    except DatasetError:
        report = None
    if report is not None:
        wal = report["wal"]
        if wal["present"]:
            print(
                f"WAL: {wal['records']} record(s) in {wal['directory']}, "
                f"checkpoint seq {wal['checkpoint_seq']}, "
                f"{wal['records_since_checkpoint']} since checkpoint"
                + ("" if wal["clean"] else "  [DAMAGED — run sts3 recover]")
            )
        else:
            print(f"WAL: none at {wal['directory']}")
    health = db.maintenance_status()
    replay_lag = 0
    if report is not None and report["wal"]["present"]:
        replay_lag = report["wal"]["replay_lag"]
    print(
        f"maintenance: {health['live_segments']} live segment(s) "
        f"(threshold {health['max_segments'] or '-'}), "
        f"WAL replay lag {replay_lag}, "
        f"{_fmt_bytes(health['resident_bytes'])} resident "
        f"(budget {_fmt_bytes(health['memory_budget_bytes']) if health['memory_budget_bytes'] else '-'})"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core import verify_archive
    from .exceptions import DatasetError

    try:
        report = verify_archive(args.file, wal_dir=args.wal)
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"archive: {report['path']} (format v{report['format_version']})")
    for payload in report["payloads"]:
        checksum = f"{payload['crc32']:08x}"
        print(
            f"  {payload['name']:<12} {payload['n_series']:>7} series  "
            f"crc {checksum:>10}  {payload['status']}"
        )
    wal = report["wal"]
    if wal["present"]:
        state = "clean" if wal["clean"] else "DAMAGED (torn tail)"
        print(
            f"wal: {wal['records']} record(s), replay lag "
            f"{wal['replay_lag']}, {state}"
        )
    else:
        print(f"wal: none at {wal['directory']}")
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")
    return 1 if report["problems"] else 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .core import recover_database, save_database
    from .exceptions import DatasetError

    try:
        db = recover_database(args.file, wal_dir=args.wal)
    except (DatasetError, OSError) as exc:
        print(f"error: cannot recover {args.file}: {exc}", file=sys.stderr)
        return 2
    output = args.output or args.file
    save_database(db, output)  # checkpoint: retires the replayed WAL
    db.close()
    print(
        f"recovered {len(db)} series in {len(db.catalog.segments)} segment(s) "
        f"-> {output}"
    )
    for record in db.catalog.quarantined:
        print(
            f"QUARANTINED {record.name}: {record.n_series} series lost "
            f"({record.reason})"
        )
    return 0


def _fmt_bytes(amount: int) -> str:
    """Human-readable byte count (fixed-ish width for table columns)."""
    value = float(amount)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{int(value)}B"  # pragma: no cover - unreachable


def _cmd_join(args: argparse.Namespace) -> int:
    from .core import STS3Database, similarity_join
    from .data.loader import load_ucr_file

    dataset = load_ucr_file(args.file)
    db = STS3Database(list(dataset.series), sigma=args.sigma, epsilon=args.epsilon)
    pairs = similarity_join(db.sets, args.threshold)
    print(
        f"{len(pairs)} pairs at J >= {args.threshold} among "
        f"{len(dataset)} series of {args.file}"
    )
    for pair in pairs[: args.limit]:
        print(f"  ({pair.first}, {pair.second})  J={pair.similarity:.4f}")
    if len(pairs) > args.limit:
        print(f"  ... and {len(pairs) - args.limit} more")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import render_table
    from .bench.levers import run_lever_phases

    levers = [lever.strip() for lever in args.levers.split(",") if lever.strip()]
    try:
        records = run_lever_phases(
            levers,
            n_series=args.series, n_queries=args.queries, length=args.length,
            sigma=args.sigma, epsilon=args.epsilon, k=args.k, seed=args.seed,
            repeats=args.repeats, cache_bytes=args.cache_bytes,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for record in records:
        phase = record["phase"]
        speedup_key = {
            "mmap": "mmap_open_speedup",
            "cache": "cache_hit_speedup",
            "combined": "combined_speedup",
        }[phase]
        baseline, levered = {
            "mmap": ("eager_open_seconds", "mmap_open_seconds"),
            "cache": ("uncached_seconds", "cached_seconds"),
            "combined": ("baseline_seconds", "levered_seconds"),
        }[phase]
        rows.append([
            phase,
            f"{record[baseline] * 1e3:.2f}",
            f"{record[levered] * 1e3:.2f}",
            f"{record[speedup_key]:.2f}x",
            record["identical_neighbor_lists"],
        ])
    print(render_table(
        ["lever", "baseline (ms)", "levered (ms)", "speedup", "identical"],
        rows,
        title=(
            f"lever phases over {args.series} series "
            f"(length {args.length}, k={args.k}, repeats {args.repeats})"
        ),
    ))
    combined = next((r for r in records if r["phase"] == "combined"), None)
    if combined is not None:
        print(
            f"combined serving throughput: "
            f"{combined['combined_queries_per_second']:.1f} q/s levered vs "
            f"{combined['baseline_queries_per_second']:.1f} q/s baseline"
        )
    if args.json:
        import json

        text = json.dumps(records, indent=2) + "\n"
        if args.json == "-":
            print(text, end="")
        else:
            Path(args.json).write_text(text)
            print(f"wrote {args.json}")
    if not all(record["identical_neighbor_lists"] for record in records):
        print("error: a levered path returned different answers", file=sys.stderr)
        return 1
    return 0


def _serve_build_db(args: argparse.Namespace):
    """Build the database ``sts3 serve`` fronts, from any source."""
    from .core import STS3Database

    if args.file is None:
        from .data import ecg_stream, make_workload

        stream = ecg_stream((args.series + 1) * args.length, seed=args.seed)
        workload = make_workload(stream, args.series, 1, args.length)
        return STS3Database(
            workload.database, sigma=args.sigma, epsilon=args.epsilon,
            cache_bytes=args.cache_bytes,
        ), f"synthetic ECG ({args.series} x {args.length})"
    from .core import load_database
    from .exceptions import DatasetError

    try:
        return (
            load_database(args.file, cache_bytes=args.cache_bytes),
            f"archive {args.file}",
        )
    except (DatasetError, ValueError):
        pass  # not a save_database archive; try UCR text
    from .data.loader import load_ucr_file

    dataset = load_ucr_file(args.file)
    return STS3Database(
        list(dataset.series), sigma=args.sigma, epsilon=args.epsilon,
        cache_bytes=args.cache_bytes,
    ), f"UCR file {args.file}"


def _cmd_maintain(args: argparse.Namespace) -> int:
    """Offline maintenance pass over an archive + WAL."""
    from .core import (
        MaintenanceConfig,
        MaintenanceEngine,
        plan_merge,
        recover_database,
        save_database,
    )
    from .exceptions import DatasetError

    try:
        db = recover_database(args.file, wal_dir=args.wal)
    except (DatasetError, OSError) as exc:
        print(f"error: cannot open {args.file}: {exc}", file=sys.stderr)
        return 2
    config = MaintenanceConfig(
        max_segments=args.max_segments,
        tier_base=args.tier_base,
        fanout=args.fanout,
        memory_budget_bytes=args.memory_budget,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.file,
    )
    before = [len(seg) for seg in db.catalog.segments]
    if args.dry_run:
        window = plan_merge(db.catalog.segments, config)
        print(f"layout: {before}")
        if window is None:
            print("at fixpoint: nothing to merge")
        else:
            start, stop = window
            print(
                f"would merge segments [{start}:{stop}] "
                f"({sum(before[start:stop])} series), then re-plan"
            )
        db.close()
        return 0
    engine = MaintenanceEngine(db, config)
    engine.run_until_idle()
    save_database(db, args.file)  # checkpoint: retires the replayed WAL
    after = [len(seg) for seg in db.catalog.segments]
    print(
        f"merged {len(before)} -> {len(after)} segment(s) "
        f"({engine.merges} merge(s)), layout {after}"
    )
    if engine.evictions:
        print(
            f"evicted {engine.evictions} segment payload(s), "
            f"{_fmt_bytes(engine.evicted_bytes)} freed"
        )
    print(f"checkpointed -> {args.file}")
    db.close()
    return 0


def _serve_build_sharded(args: argparse.Namespace):
    """The ``--shards``/sharded-archive paths of ``sts3 serve``.

    Returns ``(db, source, cleanup)``: an open
    :class:`~repro.core.shard.ShardedDatabase` plus a cleanup callable
    (closes the workers; removes the temporary sharded archive when one
    was built from a non-sharded source).
    """
    import tempfile

    from .core import shard_manifest_path
    from .core.shard import ShardedDatabase

    if args.file is not None and shard_manifest_path(args.file).exists():
        db = ShardedDatabase.open(args.file, replicas=args.replicas or None)
        return db, f"sharded archive {args.file}", db.close
    if args.shards < 2:
        raise ValueError(f"--shards must be >= 2, got {args.shards}")
    base, source = _serve_build_db(args)
    tmp = tempfile.TemporaryDirectory(prefix="sts3-serve-shards-")
    try:
        db = ShardedDatabase.from_database(
            base,
            args.shards,
            Path(tmp.name) / "shards",
            replicas=args.replicas,
        )
    except BaseException:
        tmp.cleanup()
        raise
    finally:
        base.close()

    def cleanup() -> None:
        db.close()
        tmp.cleanup()

    workers = f"{source}, {args.shards} shard workers"
    if args.replicas:
        workers += f" + {args.replicas} replica(s)/shard"
    return db, workers, cleanup


def _cmd_replica_status(args: argparse.Namespace) -> int:
    """Offline replication status: manifests, watermarks, mirror scans.

    Pure file reads — safe on a directory another process is serving.
    Lag here is *on-disk* lag (primary WAL frames minus the follower's
    persisted watermark); a live engine reports the same figure through
    :meth:`ShardedDatabase.replica_status` and the lag gauges.
    """
    from .core.replication import replica_mirror_name
    from .core.shard import ShardedDatabase
    from .core.wal import read_applied_seq, scan_wal

    try:
        manifest = ShardedDatabase.read_manifest(args.dir)
    except Exception as exc:  # noqa: BLE001 - report and exit
        print(f"error: cannot read shard manifest: {exc}", file=sys.stderr)
        return 2
    n_shards = int(manifest["shards"])
    replicas = int(manifest.get("replicas", 0))
    epochs = manifest.get("epochs") or [0] * n_shards
    wal_dirs = manifest.get("wal_dirs") or [None] * n_shards
    base = Path(args.dir)
    print(f"sharded archive: {args.dir} ({replicas} follower(s)/shard)")
    print(f"{'shard':>5} {'epoch':>6} {'live wal':<26} {'last seq':>9}")
    primary_seq: list[int] = []
    for shard_id in range(n_shards):
        name = wal_dirs[shard_id] or manifest["files"][shard_id] + ".wal"
        _, report = scan_wal(base / name)
        primary_seq.append(report.last_seq)
        print(
            f"{shard_id:>5} {epochs[shard_id]:>6} {name:<26} "
            f"{report.last_seq:>9}"
        )
    if not replicas:
        print("no replicas configured")
        return 0
    print(f"{'shard':>5} {'replica':>7} {'applied':>8} {'lag':>6} {'frames':>7}")
    for shard_id in range(n_shards):
        for replica_id in range(replicas):
            mirror = base / replica_mirror_name(shard_id, replica_id)
            if not mirror.exists():
                print(
                    f"{shard_id:>5} {replica_id:>7} {'-':>8} {'-':>6} {'-':>7}"
                )
                continue
            applied = read_applied_seq(mirror) or 0
            _, mirror_report = scan_wal(mirror)
            lag = max(0, primary_seq[shard_id] - applied)
            print(
                f"{shard_id:>5} {replica_id:>7} {applied:>8} {lag:>6} "
                f"{mirror_report.records:>7}"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .core import shard_manifest_path
    from .exceptions import DatasetError
    from .serve import ServiceConfig, serve as serve_forever

    cleanup = None
    sharded = args.shards > 0 or (
        args.file is not None and shard_manifest_path(args.file).exists()
    )
    if sharded and args.maintain:
        print(
            "error: --maintain runs inside each shard's own process and "
            "is not available with the sharded engine",
            file=sys.stderr,
        )
        return 2
    if args.replicas > 0 and not sharded:
        print(
            "error: --replicas needs the sharded engine "
            "(--shards N or a sharded archive)",
            file=sys.stderr,
        )
        return 2
    try:
        if sharded:
            db, source, cleanup = _serve_build_sharded(args)
        else:
            db, source = _serve_build_db(args)
    except (DatasetError, OSError, ValueError) as exc:
        print(f"error: cannot serve {args.file}: {exc}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        max_coalesce=args.max_coalesce,
        max_pending=args.max_pending,
        rate_limit=args.rate,
        rate_burst=args.burst,
    )
    if args.maintain:
        from .core import MaintenanceConfig

        db.enable_maintenance(MaintenanceConfig(
            max_segments=args.max_segments,
            tier_base=args.tier_base,
            fanout=args.fanout,
            memory_budget_bytes=args.memory_budget,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.file if source.startswith("archive") else None,
            interval_s=args.maint_interval,
        ), start=True)

    def ready(server) -> None:
        print(f"serving {source}: {len(db)} series")
        if args.maintain:
            print(
                f"maintenance engine on: merge past {args.max_segments} "
                f"segment(s), every {args.maint_interval}s"
            )
        print(f"binary protocol on {args.host}:{server.port}")
        if server.http_port is not None:
            print(
                f"http adapter on {args.host}:{server.http_port} "
                "(/healthz, /metrics, /v1/query, /v1/batch, /v1/insert, "
                "/v1/verify)"
            )
        print("Ctrl-C drains in-flight requests and exits")

    http_port = None if args.http_port < 0 else args.http_port
    try:
        asyncio.run(serve_forever(
            db, config, host=args.host, port=args.port, http_port=http_port,
            ready=ready,
        ))
    except KeyboardInterrupt:
        pass  # signal handler already drained
    finally:
        if cleanup is not None:
            cleanup()
    return 0


def _cmd_shard_bench(args: argparse.Namespace) -> int:
    from .bench import render_table
    from .bench.shard import run_shard_phase
    from .exceptions import ReproError

    try:
        record = run_shard_phase(
            n_series=args.series, n_queries=args.queries, length=args.length,
            sigma=args.sigma, epsilon=args.epsilon, k=args.k, seed=args.seed,
            repeats=args.repeats, shards=args.shards,
            check_faults=not args.no_faults,
        )
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table(
        ["engine", "batch (ms)", "queries/s"],
        [
            ["single-process", f"{record['single_seconds'] * 1e3:.2f}",
             f"{record['single_queries_per_second']:.1f}"],
            [f"{record['shards']} shards",
             f"{record['sharded_seconds'] * 1e3:.2f}",
             f"{record['sharded_queries_per_second']:.1f}"],
        ],
        title=(
            f"shard lever over {args.series} series "
            f"({args.queries} queries, k={args.k}, "
            f"{record['available_cores']} core(s) available)"
        ),
    ))
    print(
        f"speedup: {record['shard_speedup']:.2f}x  "
        f"bit-identical answers: {record['identical_neighbor_lists']}"
    )
    if record["available_cores"] < record["shards"]:
        print(
            f"note: {record['shards']} shards on "
            f"{record['available_cores']} core(s) — shard workers are "
            f"time-slicing; speedup reflects the hardware, not the engine"
        )
    if not args.no_faults:
        print(
            f"worker-kill drill: shard {record['fault_killed_shard']} killed "
            f"after acked insert #{record['fault_insert_id']} — "
            f"degraded-then-recovered {record['fault_degraded_first']}, "
            f"acked write found {record['fault_acked_write_found']} "
            f"({record['fault_recovery_seconds'] * 1e3:.1f} ms)"
        )
    if args.json:
        import json

        text = json.dumps(record, indent=2) + "\n"
        if args.json == "-":
            print(text, end="")
        else:
            Path(args.json).write_text(text)
            print(f"wrote {args.json}")
    failures = []
    if not record["identical_neighbor_lists"]:
        failures.append("sharded answers differ from single-process")
    if not args.no_faults and not record["fault_ok"]:
        failures.append("worker-kill drill failed")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "join":
        return _cmd_join(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "shard-bench":
        return _cmd_shard_bench(args)
    if args.command == "replica-status":
        return _cmd_replica_status(args)
    if args.command == "maintain":
        return _cmd_maintain(args)
    return _cmd_query(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
