"""The kernel-speed levers as reusable benchmark phases.

Each phase measures one lever of DESIGN.md §13 on a self-contained
workload, verifies the levered path returns answers bit-identical to
the plain path, and returns a JSON-ready record:

- :func:`run_mmap_phase` — eager vs zero-copy mapped archive opens,
  plus the first-touch cost the mapped path defers;
- :func:`run_cache_phase` — uncached queries vs warm result-cache hits;
- :func:`run_combined_phase` — a repeated-query serving workload with
  every lever on against the all-levers-off baseline (the PR's ≥5x
  combined queries-per-second acceptance).

The phases are consumed by ``benchmarks/bench_levers.py`` (CI gates +
trajectory appends) and the ``sts3 bench`` CLI subcommand (speedup
table).  Timings are best-of-``repeats`` with gc disabled, the same
discipline as the batch-engine benchmark.
"""

from __future__ import annotations

import gc
import tempfile
import time
from pathlib import Path

import numpy as np

from ..core import STS3Database, load_database, save_database

__all__ = [
    "build_segmented_database",
    "run_mmap_phase",
    "run_cache_phase",
    "run_combined_phase",
    "run_lever_phases",
]


def _neighbor_lists(results) -> list:
    return [[(n.index, n.similarity) for n in r.neighbors] for r in results]


def _best_of(fn, repeats: int) -> float:
    """Best (min) wall time of ``fn`` over ``repeats`` runs, gc off."""
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def build_segmented_database(
    n_series: int,
    length: int,
    sigma: float,
    epsilon: float,
    seed: int,
    segments: int = 4,
    buffer_capacity: int = 32,
    **db_kwargs,
) -> tuple[STS3Database, np.random.Generator]:
    """A deterministic multi-segment database plus its RNG.

    The base segment holds ``n_series`` series; each further segment is
    a sealed buffer of ``buffer_capacity`` spiked (bound-breaking)
    series, so every query genuinely plans and merges across segments.
    """
    rng = np.random.default_rng(seed)
    base = [rng.normal(size=length) for _ in range(n_series)]
    db = STS3Database(
        base, sigma=sigma, epsilon=epsilon, normalize=False,
        buffer_capacity=buffer_capacity, **db_kwargs,
    )
    spike = 50.0
    for _ in range(max(0, segments - 1)):
        for _ in range(buffer_capacity):
            series = rng.normal(size=length)
            series[int(rng.integers(0, length))] = spike
            spike += 10.0
            db.insert(series)
    return db, rng


def run_mmap_phase(
    n_series: int = 4000,
    n_queries: int = 16,
    length: int = 256,
    sigma: float = 3,
    epsilon: float = 0.58,
    k: int = 10,
    seed: int = 42,
    repeats: int = 3,
    segments: int = 4,
) -> dict:
    """Eager vs zero-copy mapped archive opens.

    ``open_speedup`` compares open times only — the mapped side defers
    payload reads to first touch, which is timed separately — and the
    record checks mapped answers stay bit-identical to eager ones.
    """
    db, rng = build_segmented_database(
        n_series, length, sigma, epsilon, seed, segments=segments
    )
    queries = [rng.normal(size=length) for _ in range(n_queries)]
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "levers.sts3"
        save_database(db, archive)
        archive_bytes = archive.stat().st_size

        eager = _best_of(lambda: load_database(archive), repeats)
        mapped = _best_of(lambda: load_database(archive, mmap=True), repeats)

        eager_db = load_database(archive)
        mapped_db = load_database(archive, mmap=True)
        start = time.perf_counter()
        mapped_results = [
            mapped_db.query(q, k=k, method="index") for q in queries
        ]
        first_touch = time.perf_counter() - start
        eager_results = [
            eager_db.query(q, k=k, method="index") for q in queries
        ]
    identical = _neighbor_lists(eager_results) == _neighbor_lists(mapped_results)
    return {
        "phase": "mmap",
        "n_series": n_series,
        "segments": segments,
        "archive_bytes": archive_bytes,
        "eager_open_seconds": round(eager, 6),
        "mmap_open_seconds": round(mapped, 6),
        "mmap_open_speedup": round(eager / mapped, 3),
        "first_touch_seconds": round(first_touch, 6),
        "identical_neighbor_lists": identical,
    }


def run_cache_phase(
    n_series: int = 3000,
    n_queries: int = 32,
    length: int = 128,
    sigma: float = 3,
    epsilon: float = 0.58,
    k: int = 10,
    seed: int = 42,
    repeats: int = 3,
    cache_bytes: int = 8 << 20,
    segments: int = 4,
) -> dict:
    """Uncached queries vs warm result-cache hits on the same workload.

    The cached loop is timed *after* one populating pass, so every
    timed request is a hit — the lever's steady-state serving shape.
    Hit answers are checked bit-identical to uncached ones and the
    cache's own hit/miss counters are recorded.
    """
    db, rng = build_segmented_database(
        n_series, length, sigma, epsilon, seed, segments=segments,
        cache_bytes=cache_bytes,
    )
    queries = [rng.normal(size=length) for _ in range(n_queries)]

    db.result_cache.clear()
    cache = db.result_cache
    db.result_cache = None
    uncached_results = [db.query(q, k=k, method="index") for q in queries]
    uncached = _best_of(
        lambda: [db.query(q, k=k, method="index") for q in queries], repeats
    )

    db.result_cache = cache
    cached_results = [db.query(q, k=k, method="index") for q in queries]  # populate
    cached = _best_of(
        lambda: [db.query(q, k=k, method="index") for q in queries], repeats
    )
    stats = cache.stats()

    identical = _neighbor_lists(uncached_results) == _neighbor_lists(cached_results)
    return {
        "phase": "cache",
        "n_series": n_series,
        "n_queries": n_queries,
        "cache_bytes": cache_bytes,
        "uncached_seconds": round(uncached, 6),
        "cached_seconds": round(cached, 6),
        "cache_hit_speedup": round(uncached / cached, 3),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "evictions": stats["evictions"],
        "identical_neighbor_lists": identical,
    }


def run_combined_phase(
    n_series: int = 3000,
    n_queries: int = 32,
    epochs: int = 8,
    length: int = 128,
    sigma: float = 3,
    epsilon: float = 0.58,
    k: int = 10,
    seed: int = 42,
    cache_bytes: int = 8 << 20,
    segments: int = 4,
) -> dict:
    """All levers on vs all levers off, on a repeated-query serving run.

    The workload replays the same ``n_queries`` batch for ``epochs``
    rounds — the shape a query cache exists for.  The levered side is
    the same catalog opened zero-copy from its archive with the result
    cache on: it pays one miss epoch and serves the rest from cache.
    The baseline (built in memory, no cache) recomputes every round.
    Backs the PR's combined ≥5x acceptance.
    """
    db, rng = build_segmented_database(
        n_series, length, sigma, epsilon, seed, segments=segments
    )
    queries = [rng.normal(size=length) for _ in range(n_queries)]
    total = n_queries * epochs

    def serve(target) -> list:
        out = []
        for _ in range(epochs):
            out.extend(target.query_batch(queries, k=k, method="index"))
        return out

    db.query_batch(queries[:4], k=k, method="index")  # warm structures
    baseline_results = serve(db)
    baseline = _best_of(lambda: serve(db), 1)

    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "levers.sts3"
        save_database(db, archive)
        mapped = load_database(archive, mmap=True, cache_bytes=cache_bytes)
        cache = mapped.result_cache
        levered_results = serve(mapped)  # includes the miss epoch
        levered = _best_of(lambda: (cache.clear(), serve(mapped)), 1)
        mapped.close()

    identical = _neighbor_lists(baseline_results) == _neighbor_lists(levered_results)
    return {
        "phase": "combined",
        "n_series": n_series,
        "requests": total,
        "epochs": epochs,
        "cache_bytes": cache_bytes,
        "baseline_seconds": round(baseline, 6),
        "levered_seconds": round(levered, 6),
        "combined_speedup": round(baseline / levered, 3),
        "baseline_queries_per_second": round(total / baseline, 2),
        "combined_queries_per_second": round(total / levered, 2),
        "identical_neighbor_lists": identical,
    }


_PHASES = {
    "mmap": run_mmap_phase,
    "cache": run_cache_phase,
    "combined": run_combined_phase,
}


def run_lever_phases(
    levers: list[str],
    n_series: int = 3000,
    n_queries: int = 32,
    length: int = 128,
    sigma: float = 3,
    epsilon: float = 0.58,
    k: int = 10,
    seed: int = 42,
    repeats: int = 3,
    cache_bytes: int = 8 << 20,
) -> list[dict]:
    """Run the named lever phases with one shared workload shape."""
    records = []
    for lever in levers:
        if lever not in _PHASES:
            raise ValueError(
                f"unknown lever {lever!r}; one of {sorted(_PHASES)}"
            )
        kwargs = dict(
            n_series=n_series, n_queries=n_queries, length=length,
            sigma=sigma, epsilon=epsilon, k=k, seed=seed,
        )
        if lever in ("cache", "combined"):
            kwargs["cache_bytes"] = cache_bytes
        if lever != "combined":
            kwargs["repeats"] = repeats
        records.append(_PHASES[lever](**kwargs))
    return records
