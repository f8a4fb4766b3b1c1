"""Transport-agnostic query service: coalescing, admission, drain.

:class:`QueryService` sits between any front end (the binary protocol
and HTTP adapter in :mod:`repro.serve.server`, or an embedding
application) and one :class:`~repro.core.database.STS3Database`.  It
owns three serving-side behaviours the engine itself should not know
about (DESIGN.md §14):

- **Request coalescing (group commit).**  A single query that finds
  the engine idle runs at the end of the loop turn it arrived in —
  nothing waits on a timer.  Queries that arrive in that turn, or
  while the engine is busy, queue, grouped by every answer-affecting
  parameter, and the oldest group becomes the next *window* (at most
  ``max_coalesce`` queries) the moment the engine frees up: one
  ``STS3Database.query_batch`` call, one pass of the
  vectorized batch kernel instead of N scalar searches.  Windows are
  served FIFO across signatures, so no signature starves.  The batch
  engine is bit-identical to the scalar path by contract, so
  coalescing is invisible in the answers and only visible in the
  throughput (and in ``sts3_server_window_queries``).
  Deadline-bounded requests and explicit batches bypass the windows:
  a deadline budget is personal and already ticking, and a batch is
  already coalesced.
- **Admission control.**  A bounded in-flight count sheds load with
  ``BUSY`` *before* work is queued (the client can back off; a queue
  that accepts everything just converts overload into latency), and an
  optional per-client token bucket turns one chatty client away with
  ``RATE_LIMITED`` before it starves the rest.
- **Graceful drain.**  ``drain()`` stops admitting and waits for
  in-flight work, queued windows included — so a deploy never answers
  a request with a torn connection.

All engine work runs on the event loop itself: the engine's mutable
surfaces (workspace scratch, update buffer, caches, WAL) are not
thread-safe, and the loop's one thread serializes them by
construction.  A 4k-series query costs the engine under a millisecond,
so a hop to a separate engine thread would cost more (two GIL
hand-offs per query) than the loop responsiveness it buys.  While an
engine call runs the loop does nothing else — it accepts no
connection, answers no ``/healthz`` or ``/metrics`` scrape and sheds
no load with ``BUSY``; ``verify`` is the one long call (0.3–0.4 s at
4k series, 1.0–1.3 s at 20k).  More cores come from serving a
:class:`~repro.core.shard.ShardedDatabase` (one process per shard,
DESIGN.md §16), which exposes the same engine surface.

Deadlines are anchored at *arrival*: the service stamps each request
with ``db.clock()`` on admission and passes the stamp through
``deadline_start``, so time a request spends waiting behind queued
windows counts against its budget exactly like search time does —
a queued request that blows its deadline degrades instead of returning
late and complete (the Lernaean-Hydra serving stance).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.database import STS3Database
from ..obs import get_registry, span
from .protocol import ServeError

__all__ = ["ServiceConfig", "QueryService"]

#: histogram buckets for coalescing-window occupancy (queries, not
#: seconds).
_WINDOW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Event-loop turns the dispatcher may wait, after answering a window,
#: for that window's callers to come back before it cuts the next (each
#: turn is one rescheduled ``_dispatch``): one for them to write their
#: answers, one to poll the sockets, one to parse what came back, one
#: for those requests to reach the queue and one so they are queued
#: before the cut.  It stops waiting as soon as
#: the queue is as wide as the answered window, so a closed-loop client
#: fleet comes back as one window rather than a wide one plus
#: stragglers, while a queue that is already deep is served at once.
#: Turns, not time: when nobody is coming back they pass in
#: microseconds.
_SETTLE_TURNS = 5

#: seconds ``drain`` waits for in-flight work before giving up.
_DRAIN_GRACE_S = 10.0


@dataclass
class ServiceConfig:
    """Knobs of the serving layer (``sts3 serve`` flags map 1:1).

    ``max_coalesce=1`` disables coalescing entirely — every request
    dispatches on its own (the serial baseline the serving benchmark
    compares against).  ``rate_limit=None`` disables
    per-client rate limiting; otherwise each client identity earns
    ``rate_limit`` request tokens per second up to a burst ceiling of
    ``rate_burst`` (a batch of N queries costs N tokens).
    """

    #: most queries one window hands the batch engine; 1 = never batch.
    max_coalesce: int = 64
    #: refuse new requests past this many in flight (queued + running).
    max_pending: int = 256
    #: per-client sustained request rate (tokens/second), None = off.
    rate_limit: float | None = None
    #: per-client burst ceiling (bucket capacity).
    rate_burst: int = 20


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
    """Queries of one signature waiting for the engine as one batch."""

    __slots__ = ("signature", "items")

    def __init__(self, signature: tuple):
        self.signature = signature
        self.items: list[tuple[np.ndarray, asyncio.Future]] = []


class QueryService:
    """The engine-facing core of the query server (see module docs)."""

    def __init__(self, db: STS3Database, config: ServiceConfig | None = None):
        self.db = db
        self.config = config or ServiceConfig()
        #: wall clock for rate limiting and the drain deadline —
        #: injectable so admission tests advance time deterministically.
        #: Distinct from ``db.clock`` (the deadline ladder's clock).
        self.clock = time.monotonic
        #: windows waiting for the engine, oldest first, and the newest
        #: not-yet-full one per signature (the one a new query joins).
        self._queue: deque[_Window] = deque()
        self._open: dict[tuple, _Window] = {}
        #: whether a ``_dispatch`` callback is scheduled (at most one),
        #: and the settle rule's state: turns left to wait and the
        #: width of the window last answered (see ``_SETTLE_TURNS``).
        self._dispatch_scheduled = False
        self._settle_turns = 0
        self._settle_width = 0
        self._buckets: dict[str, _TokenBucket] = {}
        self._pending = 0
        self._draining = False

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

    def _admit(self, client: str, cost: int = 1) -> None:
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

    def _begin(self) -> float:
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

    def _run_engine(self, fn, *args, **kwargs):
        """Run direct engine work on the loop, after every queued window.

        Direct work — an insert, an explicit batch, a deadline query —
        never overtakes a window that was already queued: the queue is
        answered first, oldest window first, then ``fn`` runs.  All of
        it is synchronous; the loop does nothing else meanwhile.
        """
        while self._queue:
            self._run_window(self._queue.popleft())
        return fn(*args, **kwargs)

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
        """One k-NN query; coalesces with compatible queued ones.

        Bit-identical to ``db.query(...)`` with the same arguments —
        its window, of any width, runs through ``db.query_batch``, and
        ``db.query`` is that call with one query.
        """
        self._admit(client)
        started = self._begin()
        status = "ok"
        try:
            if deadline_ms is not None:
                # Personal budget, already ticking: bypass the window
                # and anchor the ladder at arrival so the windows
                # answered ahead of it burn budget too.
                arrival = self.db.clock()
                return self._run_engine(
                    self.db.query, series, k=k, method=method, scale=scale,
                    max_scale=max_scale, deadline_ms=deadline_ms,
                    deadline_start=arrival,
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
        self._admit(client, cost=max(1, len(queries)))
        started = self._begin()
        status = "ok"
        try:
            arrival = (
                self.db.clock() if deadline_ms is not None else None
            )
            return self._run_engine(
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
        """Insert one series; serialized with queries on the event loop.

        The reply reports where the series landed: ``path`` is
        ``"direct"`` (in-bound, extended the newest segment) or
        ``"buffered"`` (out-of-bound, via the lazy buffer), and
        ``sealed_segment`` flags an insert whose buffer fill sealed a
        new segment.  The engine's own ``insert`` report is the reply; a
        sharded engine's adds ``id`` and ``shard``.
        """
        self._admit(client)
        started = self._begin()
        status = "ok"
        try:
            return self._run_engine(self.db.insert, series)
        except ServeError as exc:
            status = exc.code
            raise
        except Exception:
            status = "INTERNAL"
            raise
        finally:
            self._finish("insert", started, status)

    async def verify(self, client: str = "local") -> list[str]:
        """Run ``db.verify_integrity`` — on the loop, like all engine work."""
        self._admit(client)
        started = self._begin()
        status = "ok"
        try:
            return self._run_engine(self.db.verify_integrity)
        except Exception:
            status = "INTERNAL"
            raise
        finally:
            self._finish("verify", started, status)

    # -- coalescing ------------------------------------------------------

    async def _coalesce(self, series: np.ndarray, signature: tuple):
        """Queue with ``signature``'s newest window; await the answer."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        window = self._open.get(signature)
        if window is None:
            window = self._open[signature] = _Window(signature)
            self._queue.append(window)
        window.items.append((series, future))
        if len(window.items) >= self.config.max_coalesce:
            del self._open[signature]  # full: the next query opens another
        self._schedule_dispatch()
        return await future

    def _schedule_dispatch(self) -> None:
        """Run ``_dispatch`` at the end of this loop turn, once.

        The deferral is what lets a window form on an idle engine: every
        query that arrives in the same turn joins it.
        """
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            asyncio.get_running_loop().call_soon(self._dispatch)

    def _dispatch(self) -> None:
        """Answer the oldest queued window, unless the last window's
        callers may still be on their way back (``_SETTLE_TURNS``)."""
        self._dispatch_scheduled = False
        if self._settle_turns:
            self._settle_turns -= 1  # this turn counts toward the settle
            queued = sum(len(w.items) for w in self._queue)
            if self._settle_turns and queued < self._settle_width:
                self._schedule_dispatch()
                return
        if self._queue:
            self._run_window(self._queue.popleft())

    def _run_window(self, window: _Window) -> None:
        """Answer one window with one engine call, fan its results (or
        its failure) out to its queries, then start settling."""
        if self._open.get(window.signature) is window:
            del self._open[window.signature]
        get_registry().histogram(
            "sts3_server_window_queries",
            "single queries per coalescing window",
            buckets=_WINDOW_BUCKETS,
        ).observe(len(window.items))
        queries = [series for series, _ in window.items]
        k, method, scale, max_scale = window.signature
        try:
            with span("server.window", queries=len(queries), method=method):
                results = self.db.query_batch(
                    queries, k=k, method=method, scale=scale,
                    max_scale=max_scale,
                )
        except Exception as exc:  # noqa: BLE001 — fan the failure out
            for _, future in window.items:
                if not future.done():
                    future.set_exception(exc)
        else:
            for (_, future), result in zip(window.items, results):
                if not future.done():
                    future.set_result(result)
        self._settle_turns = _SETTLE_TURNS
        self._settle_width = len(queries)
        self._schedule_dispatch()

    # -- lifecycle -------------------------------------------------------

    async def drain(self) -> bool:
        """Stop admitting, wait for in-flight work and queued windows.

        Returns True when everything in flight completed inside
        ``_DRAIN_GRACE_S``.  Idempotent; the service stays drained
        afterwards.  A background maintenance engine attached to the
        database is paused first, so shutdown never races a merge
        publishing mid-drain.
        """
        self._draining = True
        engine = getattr(self.db, "maintenance", None)
        if engine is not None:
            engine.pause()
        with span("server.drain", pending=self._pending):
            deadline = self.clock() + _DRAIN_GRACE_S
            while self._pending and self.clock() < deadline:
                await asyncio.sleep(0.005)
        return not self._pending
