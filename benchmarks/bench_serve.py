"""Benchmark: served-query throughput, coalesced vs serial dispatch.

Stands up the real asyncio server (:class:`repro.serve.ServerThread`,
binary protocol over loopback TCP) and drives it with a fleet of
concurrent single-query clients — each a thread with its own blocking
:class:`~repro.serve.ServeClient`, the worst case for a naive server:
no client ever batches, so every bit of batching must come from the
server's request coalescing.

Two phases over identical workloads:

- **serial** — ``max_coalesce=1``: every request is a window of one,
  answered by a scalar ``db.query`` on the server's event loop,
- **coalesced** — ``max_coalesce=clients``: requests that arrive in
  the same loop turn, or queue behind the busy engine, leave together
  as one vectorized ``query_batch`` tile per signature (group commit;
  no timer).

Both phases run every engine call on the event loop (there is no
engine thread), so the only difference between them is batching.

The speedup is the whole point of the serving-layer design: on a
single core it comes purely from batch-kernel amortization (shared
planning, one candidate matrix, one top-k pass), not parallelism.
Every served answer is verified bit-identical to a direct
``db.query`` call before any timing is trusted.

CI runs this as a smoke floor (see ``.github/workflows/ci.yml``)::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        --clients 32 --min-coalesce-speedup 2.0

Results land in ``BENCH_serve.json`` plus one machine-tagged ``serve``
entry appended to ``BENCH_trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.core import STS3Database
from repro.data import ecg_stream, make_workload
from repro.serve import ServeClient, ServerThread, ServiceConfig

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
DEFAULT_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"

TRAJECTORY_SCHEMA = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--series", type=int, default=4000,
                        help="database size")
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--clients", type=int, default=32,
                        help="concurrent single-query client threads")
    parser.add_argument("--rounds", type=int, default=4,
                        help="queries each client sends, one at a time")
    parser.add_argument("--sigma", type=float, default=3)
    parser.add_argument("--epsilon", type=float, default=0.58)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per phase; best (min) kept")
    parser.add_argument("--method", default="index")
    parser.add_argument("--min-coalesce-speedup", type=float, default=None,
                        help="fail (exit 1) below this coalesced-vs-serial "
                             "throughput ratio")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON result path ('-' to skip writing)")
    parser.add_argument("--trajectory", type=Path, default=DEFAULT_TRAJECTORY,
                        help="append-only run history path ('-' to skip)")
    return parser


def drive_clients(port: int, client_queries: list[list[np.ndarray]],
                  k: int, method: str) -> tuple[float, list[list]]:
    """All clients, all rounds; returns (wall seconds, per-client results).

    Each client thread opens its own connection, then sends its queries
    one at a time (a request/response loop — never a client-side
    batch).  A barrier lines the threads up so the wall clock covers
    query traffic only, not connection setup.
    """
    n_clients = len(client_queries)
    results: list[list] = [[] for _ in range(n_clients)]
    errors: list[Exception] = []
    barrier = threading.Barrier(n_clients + 1)

    def worker(idx: int, client: ServeClient) -> None:
        try:
            barrier.wait(timeout=60)
            for query in client_queries[idx]:
                results[idx].append(client.query(query, k=k, method=method))
        except Exception as exc:  # noqa: BLE001 — re-raised by the driver
            errors.append(exc)

    clients = [ServeClient("127.0.0.1", port) for _ in range(n_clients)]
    threads = [
        threading.Thread(target=worker, args=(i, c), daemon=True)
        for i, c in enumerate(clients)
    ]
    try:
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=300)
        elapsed = time.perf_counter() - start
    finally:
        for client in clients:
            client.close()
    if errors:
        raise errors[0]
    return elapsed, results


def run_phase(db: STS3Database, config: ServiceConfig,
              client_queries: list[list[np.ndarray]], k: int, method: str,
              repeats: int) -> tuple[float, list[list]]:
    """Best-of-``repeats`` wall time for one server configuration."""
    best = float("inf")
    kept: list[list] = []
    for _ in range(repeats):
        with ServerThread(db, config) as handle:
            elapsed, results = drive_clients(
                handle.port, client_queries, k, method
            )
        if elapsed < best:
            best, kept = elapsed, results
    return best, kept


def identical(served: list[list], direct: list[list]) -> bool:
    """Bit-identical neighbour lists, client by client, round by round."""
    for client_served, client_direct in zip(served, direct):
        for s, d in zip(client_served, client_direct):
            if len(s.neighbors) != len(d.neighbors):
                return False
            for a, b in zip(s.neighbors, d.neighbors):
                if a.index != b.index or a.similarity != b.similarity:
                    return False
    return True


def append_trajectory(record: dict, args, path: Path) -> None:
    """Append one ``serve`` entry to the run history (append-only)."""
    history = {"schema": TRAJECTORY_SCHEMA, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                history["runs"] = loaded["runs"]
        except (json.JSONDecodeError, OSError):
            print(f"warning: {path} unreadable, starting a fresh trajectory")
    history["runs"].append({
        "schema": TRAJECTORY_SCHEMA,
        "benchmark": "serve",
        "phase": "serve",
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
            "n_clients": args.clients,
            "rounds": args.rounds,
            "length": args.length,
            "sigma": args.sigma,
            "epsilon": args.epsilon,
            "k": args.k,
            "seed": args.seed,
            "method": args.method,
        },
        "summary": {
            "coalesce_speedup": record["coalesce_speedup"],
            "serial_queries_per_second": record["serial_queries_per_second"],
            "coalesced_queries_per_second": record[
                "coalesced_queries_per_second"
            ],
            "max_coalesce": args.clients,
            "identical_neighbor_lists": record["identical_neighbor_lists"],
        },
    })
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended the serve entry to {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    total_queries = args.clients * args.rounds
    print(
        f"serving benchmark: {args.clients} clients x {args.rounds} rounds "
        f"over {args.series} series (length {args.length}, k={args.k}, "
        f"method={args.method})",
        flush=True,
    )

    stream = ecg_stream((args.series + total_queries) * args.length,
                        seed=args.seed)
    workload = make_workload(stream, args.series, total_queries, args.length)
    db = STS3Database(workload.database, sigma=args.sigma,
                      epsilon=args.epsilon)
    client_queries = [
        [np.asarray(q) for q in
         workload.queries[i * args.rounds:(i + 1) * args.rounds]]
        for i in range(args.clients)
    ]

    # Ground truth first: the engine's own answers, computed directly.
    direct = [
        [db.query(q, k=args.k, method=args.method) for q in per_client]
        for per_client in client_queries
    ]

    serial_seconds, serial_results = run_phase(
        db, ServiceConfig(max_coalesce=1, max_pending=4096),
        client_queries, args.k, args.method, args.repeats,
    )
    coalesced_seconds, coalesced_results = run_phase(
        db,
        ServiceConfig(max_coalesce=args.clients, max_pending=4096),
        client_queries, args.k, args.method, args.repeats,
    )

    serial_ok = identical(serial_results, direct)
    coalesced_ok = identical(coalesced_results, direct)
    record = {
        "phase": "serve",
        "n_clients": args.clients,
        "rounds": args.rounds,
        "total_queries": total_queries,
        "max_coalesce": args.clients,
        "serial_seconds": round(serial_seconds, 6),
        "coalesced_seconds": round(coalesced_seconds, 6),
        "serial_queries_per_second": round(
            total_queries / serial_seconds, 2
        ),
        "coalesced_queries_per_second": round(
            total_queries / coalesced_seconds, 2
        ),
        "coalesce_speedup": round(serial_seconds / coalesced_seconds, 3),
        "identical_neighbor_lists": serial_ok and coalesced_ok,
    }
    print(
        f"   serial: {record['serial_seconds']:.3f}s "
        f"({record['serial_queries_per_second']} q/s)"
    )
    print(
        f"coalesced: {record['coalesced_seconds']:.3f}s "
        f"({record['coalesced_queries_per_second']} q/s)"
    )
    print(
        f"  speedup: {record['coalesce_speedup']:.2f}x   "
        f"identical={record['identical_neighbor_lists']}"
    )

    result = {
        "benchmark": "serve",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "workload": {
            "n_series": args.series,
            "n_clients": args.clients,
            "rounds": args.rounds,
            "length": args.length,
            "sigma": args.sigma,
            "epsilon": args.epsilon,
            "k": args.k,
            "seed": args.seed,
            "method": args.method,
        },
        "phases": [record],
    }
    if str(args.output) != "-":
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    if str(args.trajectory) != "-":
        append_trajectory(record, args, args.trajectory)

    if not record["identical_neighbor_lists"]:
        print("FAIL: a served answer differed from the direct engine call",
              file=sys.stderr)
        return 1
    if (args.min_coalesce_speedup is not None
            and record["coalesce_speedup"] < args.min_coalesce_speedup):
        print(
            f"FAIL: coalesce speedup {record['coalesce_speedup']:.2f}x below "
            f"required {args.min_coalesce_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
