"""Shared thread pool for parallel segment execution (DESIGN.md §13).

The planner's unit of parallel work is one :class:`SegmentPlan` (or one
shard of a batch): independent numpy sweeps — popcount, GEMM,
``searchsorted`` — that release the GIL, so *threads* scale them across
cores inside one process (the other way to use cores is one persistent
process per shard, :mod:`repro.core.shard`).  An
:class:`ExecutorPool` wraps one lazily-created
:class:`~concurrent.futures.ThreadPoolExecutor` per worker count and is
shared process-wide (:func:`get_pool`): pools are tiny, and sharing
keeps thread churn off the per-query path.

Determinism: :meth:`ExecutorPool.map_ordered` returns results in
submission order regardless of completion order, which is what lets the
planner keep its bit-identical ``(similarity desc, index asc)`` merge —
parallelism changes *when* a segment answer is computed, never how
answers combine.

``resolve_workers`` is the single knob-decoding point: ``None`` → 1
(serial — the default, so single-threaded callers and deterministic
tests see byte-identical behaviour), ``0`` → one worker per *available*
CPU (cgroup/affinity aware via :func:`available_cpu_count`), any other
value is used as-is.  ``STS3_MAX_WORKERS`` caps whatever the knob
resolves to, so operators can bound fan-out without touching call
sites.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "ExecutorPool",
    "available_cpu_count",
    "get_pool",
    "map_ordered",
    "resolve_workers",
]

MAX_WORKERS_ENV = "STS3_MAX_WORKERS"


def available_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the container: under a
    CPU-limited cgroup or a pinned affinity mask it oversubscribes.
    ``sched_getaffinity`` reflects the real allowance where the
    platform supports it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _env_worker_cap() -> int | None:
    raw = os.environ.get(MAX_WORKERS_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{MAX_WORKERS_ENV} must be a positive integer, got {raw!r}"
        ) from exc
    if cap < 1:
        raise ValueError(f"{MAX_WORKERS_ENV} must be >= 1, got {cap}")
    return cap


def resolve_workers(max_workers: int | None) -> int:
    """Decode the ``max_workers`` knob into a concrete worker count."""
    if max_workers is None:
        return 1
    workers = int(max_workers)
    if workers < 0:
        raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
    if workers == 0:
        workers = available_cpu_count()
    cap = _env_worker_cap()
    if cap is not None:
        workers = min(workers, cap)
    return max(workers, 1)


class ExecutorPool:
    """A named, lazily-started thread pool with ordered fan-out.

    Threads are created on first use and reused for the life of the
    process (``ThreadPoolExecutor`` joins them at interpreter exit).
    The pool is safe to share between databases: tasks carry their own
    state and the planner gives each worker thread its own workspace.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError(f"ExecutorPool needs >= 1 worker, got {max_workers}")
        self.max_workers = int(max_workers)
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure(self) -> ThreadPoolExecutor:
        if self._executor is None:
            with self._lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="sts3-exec",
                    )
        return self._executor

    def map_ordered(self, fn, items) -> list:
        """Run ``fn(item)`` for every item; results in submission order.

        Exceptions propagate from the first failing item (in submission
        order), matching what a plain loop would raise.
        """
        executor = self._ensure()
        futures = [executor.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def _reset_after_fork(self) -> None:
        """Drop executor state inherited across ``fork``.

        The child inherits the pool *object* but not the pool's threads
        (only the forking thread survives), so a carried-over executor
        would accept work that nothing ever runs.  Locks are replaced
        too: the parent may have been holding them mid-operation.
        """
        self._executor = None
        self._lock = threading.Lock()

    def shutdown(self) -> None:
        """Join the worker threads (tests; production pools live on)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None


_pools: dict[int, ExecutorPool] = {}
_pools_lock = threading.Lock()


def get_pool(max_workers: int) -> ExecutorPool:
    """The process-wide shared pool for ``max_workers`` threads."""
    max_workers = int(max_workers)
    with _pools_lock:
        pool = _pools.get(max_workers)
        if pool is None:
            pool = _pools[max_workers] = ExecutorPool(max_workers)
        return pool


def map_ordered(fn, items, workers: int) -> list:
    """``fn`` over ``items`` on ``workers`` threads; results in item order.

    One worker or one item runs inline on the caller's thread — the
    serial path is the parallel path minus the pool, not a second loop.
    """
    if workers > 1 and len(items) > 1:
        return get_pool(workers).map_ordered(fn, items)
    return [fn(item) for item in items]


def _reset_pools_after_fork() -> None:
    global _pools_lock
    _pools_lock = threading.Lock()
    for pool in _pools.values():
        pool._reset_after_fork()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix in CI
    os.register_at_fork(after_in_child=_reset_pools_after_fork)
