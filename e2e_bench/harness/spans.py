"""The benchmark's own span recorder (traced runs only).

Spans are recorded around calls into the program's public functions,
from outside the program: name, start, end, the span that caused it,
and the request they belong to.  They stay in memory and are written
out with the result file when the run ends.

A sampled request's end-to-end call is its root span.  Its input is
then replayed through each layer's public entry point; every replay is
recorded as a child of the span of the layer that *calls* it in the
program (the parent link is logical: replays run one after the other,
not inside the parent's interval).  A layer's self time is therefore
its span's duration minus the durations of its children, and the
root's self time is what no probe explains.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from .stats import median

__all__ = ["Span", "SpanRecorder", "self_times", "waterfall"]


@dataclass
class Span:
    id: int
    name: str
    request: int
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Append-only span store; safe to share between client threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    @contextmanager
    def span(self, name: str, request: int, parent: int | None = None):
        """Time the enclosed call; yields the span id for children to name."""
        span_id = next(self._ids)
        start = self.clock()
        try:
            yield span_id
        finally:
            self.spans.append(
                Span(span_id, name, request, parent, start, self.clock())
            )

    def add(self, name: str, request: int, parent: int | None,
            start: float, end: float) -> int:
        """Record a span whose interval the caller measured or derived itself."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, request, parent, start, end))
        return span_id

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the durations of its children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def waterfall(spans: list[Span], root_name: str) -> dict:
    """Per-layer median self time over the replayed requests of one kind.

    Only requests whose root span is named ``root_name`` count.
    Returns ``{"end_to_end": median root duration over ALL such
    requests, "layers": {name: median self time}, "unattributed":
    remainder, "requests": n, "sampled": n}`` in seconds.  ``layers``
    holds every non-root span name; the remainder is defined so that
    the rows add up to the end-to-end median exactly.
    """
    roots = {s.request: s for s in spans if s.name == root_name and s.parent is None}
    if not roots:
        raise ValueError(f"no root spans named {root_name!r}")
    mine = [s for s in spans if s.request in roots]
    own = self_times(mine)
    per_request: dict[int, dict[str, float]] = {}
    for s in mine:
        if s.parent is None:
            continue
        layers = per_request.setdefault(s.request, {})
        layers[s.name] = layers.get(s.name, 0.0) + own[s.id]
    names = sorted({name for layers in per_request.values() for name in layers})
    layers = {
        name: median([req[name] for req in per_request.values() if name in req])
        for name in names
    }
    end_to_end = median([s.duration for s in roots.values()])
    return {
        "end_to_end": end_to_end,
        "layers": layers,
        "unattributed": end_to_end - sum(layers.values()),
        "requests": len(roots),
        "sampled": len(per_request),
    }
