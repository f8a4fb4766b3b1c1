"""Transport-agnostic query service: coalescing, admission, drain.

:class:`QueryService` sits between any front end (the binary protocol
and HTTP adapter in :mod:`repro.serve.server`, or an embedding
application) and one :class:`~repro.core.database.STS3Database`.  It
owns three serving-side behaviours the engine itself should not know
about (DESIGN.md §14):

- **Request coalescing.**  Concurrent single queries that share every
  answer-affecting parameter are gathered for up to
  ``coalesce_window_ms`` and executed as *one*
  ``STS3Database.query_batch`` call — one pass of the vectorized
  batch kernel instead of N scalar searches.  The batch engine is
  bit-identical to the scalar path by contract, so coalescing is
  invisible in the answers and only visible in the throughput (and in
  ``sts3_server_window_queries``).  Deadline-bounded requests bypass
  the window: their budget is personal and already ticking.
- **Admission control.**  A bounded in-flight count sheds load with
  ``BUSY`` *before* work is queued (the client can back off; a queue
  that accepts everything just converts overload into latency), and an
  optional per-client token bucket turns one chatty client away with
  ``RATE_LIMITED`` before it starves the rest.
- **Graceful drain.**  ``drain()`` stops admitting, flushes any open
  coalescing window immediately, and waits for in-flight work — so a
  deploy never answers a request with a torn connection.

All engine work runs on a single dedicated executor thread: the
engine's mutable surfaces (workspace scratch, update buffer, caches)
are not thread-safe, and one thread serializes them by construction
while numpy kernels still release the GIL under it.  More cores come
from serving a :class:`~repro.core.shard.ShardedDatabase` (one process
per shard, DESIGN.md §16), which exposes the same engine surface.

Deadlines are anchored at *arrival*: the service stamps each request
with ``db.clock()`` on admission and passes the stamp through
``deadline_start``, so time a request spends waiting behind the
executor counts against its budget exactly like search time does —
a queued request that blows its deadline degrades instead of returning
late and complete (the Lernaean-Hydra serving stance).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.database import STS3Database
from ..obs import get_registry, span
from .protocol import ServeError

__all__ = ["ServiceConfig", "QueryService"]

#: histogram buckets for coalescing-window occupancy (queries, not
#: seconds) and request latency respectively.
_WINDOW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class ServiceConfig:
    """Knobs of the serving layer (``sts3 serve`` flags map 1:1).

    ``coalesce_window_ms=0`` disables micro-batching entirely — every
    request dispatches on its own (the serial baseline the serving
    benchmark compares against).  ``rate_limit=None`` disables
    per-client rate limiting; otherwise each client identity earns
    ``rate_limit`` request tokens per second up to a burst ceiling of
    ``rate_burst`` (a batch of N queries costs N tokens).
    """

    #: how long the first query of a window waits for company (ms).
    coalesce_window_ms: float = 2.0
    #: flush a window early once it holds this many queries.
    max_coalesce: int = 64
    #: refuse new requests past this many in flight (queued + running).
    max_pending: int = 256
    #: per-client sustained request rate (tokens/second), None = off.
    rate_limit: float | None = None
    #: per-client burst ceiling (bucket capacity).
    rate_burst: int = 20
    #: seconds ``drain`` waits for in-flight work before giving up.
    drain_grace_s: float = 10.0


class _TokenBucket:
    """Classic token bucket; time injected for deterministic tests."""

    __slots__ = ("tokens", "stamp")

    def __init__(self, burst: float, now: float):
        self.tokens = float(burst)
        self.stamp = now

    def admit(self, cost: float, rate: float, burst: float, now: float) -> bool:
        self.tokens = min(float(burst), self.tokens + (now - self.stamp) * rate)
        self.stamp = now
        if self.tokens < cost:
            return False
        self.tokens -= cost
        return True


class _Window:
    """One open coalescing window: queries awaiting a shared batch."""

    __slots__ = ("signature", "items", "handle", "closed", "opened_at")

    def __init__(self, signature: tuple, opened_at: float):
        self.signature = signature
        self.items: list[tuple[np.ndarray, asyncio.Future]] = []
        self.handle: asyncio.TimerHandle | None = None
        self.closed = False
        self.opened_at = opened_at


class QueryService:
    """The engine-facing core of the query server (see module docs)."""

    def __init__(self, db: STS3Database, config: ServiceConfig | None = None):
        self.db = db
        self.config = config or ServiceConfig()
        #: wall clock for rate limiting and window ages — injectable so
        #: admission tests advance time deterministically.  Distinct
        #: from ``db.clock`` (the deadline ladder's clock).
        self.clock = time.monotonic
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="sts3-engine"
        )
        self._windows: dict[tuple, _Window] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self._pending = 0
        self._draining = False
        self._tasks: set[asyncio.Task] = set()

    # -- admission -------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has started; no new work is admitted."""
        return self._draining

    @property
    def pending(self) -> int:
        """Requests currently admitted and not yet answered."""
        return self._pending

    def _reject(self, reason: str, code: str, message: str) -> ServeError:
        get_registry().counter(
            "sts3_server_rejected_total", "requests shed at admission, by reason"
        ).inc(reason=reason)
        return ServeError(code, message)

    def _admit(self, op: str, client: str, cost: int = 1) -> None:
        """Admission control; raises :class:`ServeError` to shed load."""
        config = self.config
        if self._draining:
            raise self._reject(
                "draining", "DRAINING", "server is draining; retry elsewhere"
            )
        if self._pending >= config.max_pending:
            raise self._reject(
                "queue_full", "BUSY",
                f"admission queue full ({config.max_pending} in flight); "
                "back off and retry",
            )
        if config.rate_limit is not None:
            now = self.clock()
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = _TokenBucket(
                    config.rate_burst, now
                )
            if not bucket.admit(
                cost, config.rate_limit, config.rate_burst, now
            ):
                raise self._reject(
                    "rate_limited", "RATE_LIMITED",
                    f"client {client} over {config.rate_limit:g} req/s "
                    f"(burst {config.rate_burst})",
                )

    # -- bookkeeping -----------------------------------------------------

    def _begin(self, op: str) -> float:
        self._pending += 1
        get_registry().gauge(
            "sts3_server_inflight", "admitted requests not yet answered"
        ).set(self._pending)
        return time.perf_counter()

    def _finish(self, op: str, started: float, status: str) -> None:
        self._pending -= 1
        registry = get_registry()
        registry.gauge(
            "sts3_server_inflight", "admitted requests not yet answered"
        ).set(self._pending)
        registry.counter(
            "sts3_server_requests_total", "requests answered, by op and status"
        ).inc(op=op, status=status)
        registry.histogram(
            "sts3_server_request_seconds", "request latency from admission"
        ).observe(time.perf_counter() - started, op=op)

    async def _run_engine(self, fn, *args, **kwargs):
        """Run blocking engine work on the dedicated engine thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, lambda: fn(*args, **kwargs)
        )

    def _track(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- operations ------------------------------------------------------

    async def query(
        self,
        series: np.ndarray,
        k: int = 1,
        method: str = "auto",
        scale: int | None = None,
        max_scale: int | None = None,
        deadline_ms: float | None = None,
        client: str = "local",
    ):
        """One k-NN query; coalesces with concurrent compatible ones.

        Bit-identical to ``db.query(...)`` with the same arguments —
        the coalescing path runs through ``db.query_batch``, whose
        parity with scalar calls the engine already guarantees.
        """
        self._admit("query", client)
        started = self._begin("query")
        status = "ok"
        try:
            if deadline_ms is not None:
                # Personal budget, already ticking: bypass the window
                # and anchor the ladder at arrival so executor queue
                # wait burns budget too.
                arrival = self.db.clock()
                return await self._run_engine(
                    self.db.query, series, k=k, method=method, scale=scale,
                    max_scale=max_scale, deadline_ms=deadline_ms,
                    deadline_start=arrival,
                )
            if self.config.coalesce_window_ms <= 0:
                return await self._run_engine(
                    self.db.query, series, k=k, method=method, scale=scale,
                    max_scale=max_scale,
                )
            return await self._coalesce(series, (k, method, scale, max_scale))
        except ServeError as exc:
            status = exc.code
            raise
        except Exception:
            status = "INTERNAL"
            raise
        finally:
            self._finish("query", started, status)

    async def query_batch(
        self,
        queries: list[np.ndarray],
        k: int = 1,
        method: str = "auto",
        scale: int | None = None,
        max_scale: int | None = None,
        deadline_ms: float | None = None,
        client: str = "local",
    ):
        """An explicit batch — already coalesced by the client.

        Counts as one admission slot but ``len(queries)`` rate-limit
        tokens (it is that many queries' worth of work).
        """
        self._admit("batch", client, cost=max(1, len(queries)))
        started = self._begin("batch")
        status = "ok"
        try:
            arrival = (
                self.db.clock() if deadline_ms is not None else None
            )
            return await self._run_engine(
                self.db.query_batch, queries, k=k, method=method, scale=scale,
                max_scale=max_scale, deadline_ms=deadline_ms,
                deadline_start=arrival,
            )
        except ServeError as exc:
            status = exc.code
            raise
        except Exception:
            status = "INTERNAL"
            raise
        finally:
            self._finish("batch", started, status)

    async def insert(self, series: np.ndarray, client: str = "local") -> dict:
        """Insert one series; serialized with queries on the engine thread.

        The reply reports where the series landed: ``path`` is
        ``"direct"`` (in-bound, extended the newest segment) or
        ``"buffered"`` (out-of-bound, via the lazy buffer), and
        ``sealed_segment`` flags an insert whose buffer fill sealed a
        new segment.  The engine's own ``insert`` report is the reply; a
        sharded engine's adds ``id`` and ``shard``.
        """
        self._admit("insert", client)
        started = self._begin("insert")
        status = "ok"
        try:
            return await self._run_engine(self.db.insert, series)
        except ServeError as exc:
            status = exc.code
            raise
        except Exception:
            status = "INTERNAL"
            raise
        finally:
            self._finish("insert", started, status)

    async def verify(self, client: str = "local") -> list[str]:
        """Run ``db.verify_integrity`` off the event loop."""
        self._admit("verify", client)
        started = self._begin("verify")
        status = "ok"
        try:
            return await self._run_engine(self.db.verify_integrity)
        except Exception:
            status = "INTERNAL"
            raise
        finally:
            self._finish("verify", started, status)

    # -- coalescing ------------------------------------------------------

    async def _coalesce(self, series: np.ndarray, signature: tuple):
        """Join (or open) the window for ``signature``; await its batch."""
        loop = asyncio.get_running_loop()
        window = self._windows.get(signature)
        if window is None or window.closed:
            window = _Window(signature, self.clock())
            self._windows[signature] = window
            window.handle = loop.call_later(
                self.config.coalesce_window_ms / 1000.0,
                self._flush_window,
                window,
            )
        future: asyncio.Future = loop.create_future()
        window.items.append((series, future))
        if len(window.items) >= self.config.max_coalesce:
            self._flush_window(window)
        return await future

    def _flush_window(self, window: _Window) -> None:
        """Close a window and hand its queries to the engine as one batch."""
        if window.closed:
            return
        window.closed = True
        if window.handle is not None:
            window.handle.cancel()
        if self._windows.get(window.signature) is window:
            del self._windows[window.signature]
        get_registry().histogram(
            "sts3_server_window_queries",
            "single queries coalesced per micro-batching window",
            buckets=_WINDOW_BUCKETS,
        ).observe(len(window.items))
        self._track(self._run_window(window))

    async def _run_window(self, window: _Window) -> None:
        queries = [series for series, _ in window.items]
        k, method, scale, max_scale = window.signature
        try:
            with span("server.window", queries=len(queries), method=method):
                if len(queries) == 1:
                    # A lonely window: the scalar path answers it with
                    # less fixed cost than a one-query batch pass.
                    results = [
                        await self._run_engine(
                            self.db.query, queries[0], k=k, method=method,
                            scale=scale, max_scale=max_scale,
                        )
                    ]
                else:
                    results = await self._run_engine(
                        self.db.query_batch, queries, k=k, method=method,
                        scale=scale, max_scale=max_scale,
                    )
        except BaseException as exc:  # noqa: BLE001 — fan the failure out
            for _, future in window.items:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(window.items, results):
            if not future.done():
                future.set_result(result)

    # -- lifecycle -------------------------------------------------------

    async def drain(self, grace_s: float | None = None) -> bool:
        """Stop admitting, flush open windows, wait for in-flight work.

        Returns True when everything in flight completed inside the
        grace period (config ``drain_grace_s`` unless overridden).
        Idempotent; the service stays drained afterwards.  A background
        maintenance engine attached to the database is paused first, so
        shutdown never races a merge publishing mid-drain.
        """
        self._draining = True
        engine = getattr(self.db, "maintenance", None)
        if engine is not None:
            engine.pause()
        with span("server.drain", pending=self._pending):
            for window in list(self._windows.values()):
                self._flush_window(window)
            deadline = self.clock() + (
                self.config.drain_grace_s if grace_s is None else grace_s
            )
            while (self._pending or self._tasks) and self.clock() < deadline:
                await asyncio.sleep(0.005)
        return not self._pending and not self._tasks

    def close(self) -> None:
        """Release the engine thread (call after :meth:`drain`)."""
        self._executor.shutdown(wait=True)
