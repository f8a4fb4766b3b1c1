"""Lightweight span tracer for the query path.

A *span* is a named interval measured on the monotonic clock
(``time.perf_counter_ns``), optionally annotated with attributes, and
nested under whatever span was open on the same thread when it started.
Spans are created with a context manager::

    from repro.obs import span

    with span("query", method="index"):
        with span("filter"):
            ...

Instrumented code always calls :func:`span`; what it costs depends on
the *active tracer*:

- The default :data:`NOOP` tracer returns a shared do-nothing context
  manager — no allocation, no clock read, no lock.  This is the mode
  production hot paths run in unless a caller opts in, and the
  benchmark guard (``benchmarks/bench_batch_engine.py``) confirms it
  stays under 2% of query time.
- A real :class:`Tracer` records every finished span into a
  thread-safe list; :meth:`Tracer.finished`, :meth:`Tracer.to_dicts`,
  :meth:`Tracer.stage_seconds`, and :meth:`Tracer.format_tree` expose
  the collected trace.

Nesting is tracked per thread (each thread has its own open-span
stack), so concurrent queries interleave without corrupting each
other's parentage.  Forked worker processes (the shard and replica
workers of :mod:`repro.core.worker`) inherit the active tracer
copy-on-write: spans recorded *inside* a worker stay in the worker
process, while the parent's own spans — including any that were open
across the fork — close normally.  Orphaned parent ids are tolerated
everywhere (such spans are treated as roots when a tree is built).

The module is intentionally zero-dependency (stdlib only) so every
layer of the system can import it without cycles.
"""

from __future__ import annotations

import itertools
import threading
import time

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "span",
]

_ids = itertools.count(1)


class Span:
    """One finished (or still open) named interval.

    ``duration_ns`` is ``None`` while the span is open; ``error`` holds
    the exception class name when the span body raised (the span still
    closes — exceptions propagate but are never swallowed).
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "thread_id",
        "start_ns",
        "end_ns",
        "error",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, parent_id: int | None, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_ids)
        self.parent_id = parent_id
        self.thread_id = threading.get_ident()
        self.start_ns = 0
        self.end_ns: int | None = None
        self.error: str | None = None
        self._tracer = tracer

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._pop(self)
        return False  # never swallow the exception

    def set(self, **attrs) -> "Span":
        """Attach attributes to an open span (chainable)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ns(self) -> int | None:
        """Elapsed nanoseconds, or ``None`` while the span is open."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is open)."""
        ns = self.duration_ns
        return 0.0 if ns is None else ns / 1e9

    def to_dict(self) -> dict:
        """JSON-ready flat representation (children are not embedded)."""
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms)"


class _NoopSpan:
    """Shared do-nothing span: the entire cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Tracer that records nothing; the default on every hot path."""

    enabled = False

    def span(self, name: str, **attrs) -> _NoopSpan:
        """Return the shared no-op span (ignores all arguments)."""
        return _NOOP_SPAN

    def finished(self) -> list[Span]:
        """No spans, ever."""
        return []

    def reset(self) -> None:
        """Nothing to clear."""


NOOP = NoopTracer()


class Tracer:
    """Collects finished spans; safe for concurrent threads.

    Each thread nests spans on its own stack; finished spans land in
    one shared list guarded by a lock (appends are rare relative to
    span bodies, so contention is negligible).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._local = threading.local()

    # -- recording -------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A new span nested under the thread's innermost open span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        return Span(self, name, parent_id, attrs)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_obj: Span) -> None:
        self._stack().append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        stack = self._stack()
        # A forked child inherits the parent's stack; only pop what we
        # pushed (the span is normally on top, but be defensive).
        if stack and stack[-1] is span_obj:
            stack.pop()
        elif span_obj in stack:  # pragma: no cover - defensive
            stack.remove(span_obj)
        with self._lock:
            self._finished.append(span_obj)

    # -- inspection ------------------------------------------------------

    def finished(self) -> list[Span]:
        """Snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        """Drop every collected span (open spans keep nesting intact)."""
        with self._lock:
            self._finished.clear()

    def stage_seconds(self) -> dict[str, float]:
        """Total seconds per span name, sorted by name.

        Nested spans each contribute to their own name, so sum only
        sibling stages (e.g. ``filter`` + ``refine`` + ``select_topk``)
        when comparing against a parent's wall-clock.
        """
        totals: dict[str, float] = {}
        for span_obj in self.finished():
            totals[span_obj.name] = totals.get(span_obj.name, 0.0) + span_obj.duration_s
        return dict(sorted(totals.items()))

    def stage_counts(self) -> dict[str, int]:
        """Number of finished spans per span name, sorted by name."""
        counts: dict[str, int] = {}
        for span_obj in self.finished():
            counts[span_obj.name] = counts.get(span_obj.name, 0) + 1
        return dict(sorted(counts.items()))

    def total_seconds(self, name: str) -> float:
        """Total seconds across finished spans named ``name``."""
        return self.stage_seconds().get(name, 0.0)

    def to_dicts(self) -> list[dict]:
        """The trace as a nested forest of JSON-ready dicts.

        Children are sorted by start time and embedded under a
        ``children`` key; spans whose parent never finished (e.g. it
        lived in a forked worker, or is still open) become roots.
        """
        spans = sorted(self.finished(), key=lambda s: (s.start_ns, s.span_id))
        nodes = {s.span_id: {**s.to_dict(), "children": []} for s in spans}
        roots: list[dict] = []
        for span_obj in spans:
            node = nodes[span_obj.span_id]
            parent = nodes.get(span_obj.parent_id)
            (parent["children"] if parent else roots).append(node)
        return roots

    def format_tree(self, max_spans: int = 200) -> str:
        """Human-readable indented trace (for ``sts3 query --trace``)."""
        lines: list[str] = []

        def walk(node: dict, depth: int) -> None:
            if len(lines) >= max_spans:
                return
            ns = node["duration_ns"]
            duration = "   open   " if ns is None else f"{ns / 1e6:9.3f}ms"
            attrs = node.get("attrs") or {}
            suffix = "".join(f" {k}={v}" for k, v in attrs.items())
            if node.get("error"):
                suffix += f" !{node['error']}"
            lines.append(f"{duration}  {'  ' * depth}{node['name']}{suffix}")
            for child in node["children"]:
                walk(child, depth + 1)

        for root in self.to_dicts():
            walk(root, 0)
        total = len(self.finished())
        if total > max_spans:
            lines.append(f"... ({total - max_spans} more spans)")
        return "\n".join(lines)


#: The process-wide active tracer consulted by :func:`span`.
_active: Tracer | NoopTracer = NOOP


def get_tracer() -> Tracer | NoopTracer:
    """The currently active tracer (:data:`NOOP` unless one was set)."""
    return _active


def set_tracer(tracer: Tracer | NoopTracer) -> Tracer | NoopTracer:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer
    return previous


class use_tracer:
    """Context manager installing a tracer for the duration of a block.

    ::

        tracer = Tracer()
        with use_tracer(tracer):
            db.query(q, k=5)
        print(tracer.format_tree())
    """

    def __init__(self, tracer: Tracer | NoopTracer):
        self.tracer = tracer
        self._previous: Tracer | NoopTracer | None = None

    def __enter__(self) -> Tracer | NoopTracer:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        return False


def span(name: str, **attrs):
    """A span on the active tracer (no-op unless tracing is enabled)."""
    return _active.span(name, **attrs)
