"""Segment catalog: the index-lifecycle layer (DESIGN.md §10, §15).

:class:`SegmentCatalog` tracks the live, immutable
:class:`~repro.core.segment.Segment` objects in global-index order,
assigns segment IDs, and bumps a generation number on every structural
change (bootstrap, seal, extend, compact, merge).  It replaces the
seed's ad-hoc ``_invalidate``/cached-searcher dance in ``database.py``:
since segments own their searcher caches and never mutate,
"invalidation" is simply replacing a segment, and anything holding a
stale generation number knows to re-plan.

Since PR 8 the catalog is *snapshot-isolated*: every structural change
publishes a new immutable :class:`CatalogSnapshot` (a tuple of
segments plus the generation), and readers that need a consistent view
across multiple accesses :meth:`~SegmentCatalog.pin` the current
snapshot instead of locking out writers.  Mutators copy-and-swap under
a small internal lock, so a background merge can replace a run of
segments while in-flight queries keep reading the snapshot they
pinned; the old snapshot's segments are reclaimed (retirement hooks +
stale ``sts3_bitset_bytes_resident`` labels dropped) only once its
refcount drains.

Lifecycle spans/counters (docs/observability.md): sealing a buffer
emits a ``segment.seal`` span and increments
``sts3_segments_sealed_total``; merging emits ``segment.compact`` and
increments ``sts3_rebuilds_total`` (compaction is where the seed's
full-rebuild cost now lives).  The ``sts3_live_segments`` gauge tracks
the catalog size.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..obs import get_registry, span
from .grid import Bound, Grid
from .segment import Segment, count_transforms
from .setrep import transform_many

__all__ = ["CatalogSnapshot", "QuarantineRecord", "SegmentCatalog"]


@dataclass(frozen=True)
class QuarantineRecord:
    """A segment payload the loader refused to trust (DESIGN.md §12).

    ``name`` is the payload's manifest name (``segment-<position>`` or
    ``buffer``), ``n_series`` how many series the manifest said it held.
    Quarantined payloads are *skipped*, not restored: the surviving
    segments pack consecutively, so global indices shift — queries
    against a quarantined catalog report ``complete=False`` with
    ``degraded_reason="quarantine"`` rather than pretending nothing
    happened.
    """

    name: str
    n_series: int
    reason: str


class CatalogSnapshot:
    """An immutable view of the catalog at one generation.

    Everything the read path needs for one request — the segment tuple,
    the generation (cache-key component), the quarantine list, and the
    per-segment global offsets — frozen at pin time.  Snapshots are
    cheap (they share the segment objects, which never mutate) and are
    handed out by :meth:`SegmentCatalog.pin`; the refcount is owned by
    the catalog and guarded by its lock, never touched directly.
    """

    __slots__ = ("segments", "generation", "quarantined", "_offsets", "_refs")

    def __init__(
        self,
        segments: tuple[Segment, ...],
        generation: int,
        quarantined: tuple[QuarantineRecord, ...],
    ):
        self.segments = tuple(segments)
        self.generation = int(generation)
        self.quarantined = tuple(quarantined)
        self._offsets: tuple[int, ...] | None = None
        self._refs = 0

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def n_series(self) -> int:
        """Total series across the snapshot's segments."""
        return sum(len(seg) for seg in self.segments)

    def offsets(self) -> tuple[int, ...]:
        """Global index of each segment's first series.

        Computed lazily; the compute is idempotent over immutable
        state, so the unsynchronized cache fill is benign.
        """
        if self._offsets is None:
            offsets, total = [], 0
            for seg in self.segments:
                offsets.append(total)
                total += len(seg)
            self._offsets = tuple(offsets)
        return self._offsets

    def covering_bound(self) -> Bound:
        """Smallest bound covering every segment's grid bound."""
        if not self.segments:
            raise ParameterError("cannot bound an empty catalog")
        bound = self.segments[0].grid.bound
        for seg in self.segments[1:]:
            bound = bound.union(seg.grid.bound)
        return bound


class SegmentCatalog:
    """Ordered collection of live segments plus their shared parameters.

    Global series index ``g`` lives in the segment at the largest
    offset ``<= g`` (see :meth:`offsets`); segment order therefore
    *is* insertion order, and compaction only ever merges consecutive
    runs so that global indices — the identity queries report — stay
    stable across every lifecycle operation.

    All mutators copy-and-swap the published :class:`CatalogSnapshot`
    under ``_lock``; plain attribute-style reads (``segments``,
    ``generation``, ``offsets()``) go through the current snapshot and
    never block.  Concurrent *mutators* are serialized by the lock, but
    ordering between a journal append and its catalog change is the
    database layer's job (its mutation lock).
    """

    def __init__(self, sigma: float, epsilon, value_padding: float = 0.0):
        self.sigma = float(sigma)
        self.epsilon = epsilon
        self.value_padding = float(value_padding)
        self._next_id = 0
        self._lock = threading.RLock()
        self._segments: list[Segment] = []
        self._quarantined: list[QuarantineRecord] = []
        self._snapshot = CatalogSnapshot((), 0, ())
        #: snapshots no longer current but still pinned by readers.
        self._retired: list[CatalogSnapshot] = []
        #: callables invoked with each Segment whose ID leaves the
        #: catalog for good (no live or pinned snapshot contains it).
        self._retirement_hooks: list = []

    def __len__(self) -> int:
        return len(self._snapshot.segments)

    def __iter__(self):
        return iter(self._snapshot.segments)

    # -- snapshot plumbing ----------------------------------------------

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The current snapshot's segments (immutable tuple)."""
        return self._snapshot.segments

    @property
    def generation(self) -> int:
        """Bumped on every change; cheap staleness check for caches."""
        return self._snapshot.generation

    @property
    def quarantined(self) -> tuple[QuarantineRecord, ...]:
        """Payloads the loader could not verify — see :meth:`quarantine`."""
        return self._snapshot.quarantined

    def current(self) -> CatalogSnapshot:
        """The current snapshot *without* pinning (single-read use)."""
        return self._snapshot

    def pin(self) -> CatalogSnapshot:
        """Pin and return the current snapshot.

        The snapshot's segments stay reclaimable-proof until the
        matching :meth:`release`; pinning is one refcount increment
        under the catalog lock, so readers never wait on a merge.
        """
        with self._lock:
            snapshot = self._snapshot
            snapshot._refs += 1
            return snapshot

    def release(self, snapshot: CatalogSnapshot) -> None:
        """Release a pin; reclaims the snapshot once its refs drain."""
        with self._lock:
            snapshot._refs -= 1
            if snapshot._refs <= 0 and snapshot is not self._snapshot:
                try:
                    self._retired.remove(snapshot)
                except ValueError:
                    return  # already reclaimed (or never retired)
                self._reclaim(snapshot)

    @contextmanager
    def pinned(self):
        """``with catalog.pinned() as snap:`` — pin for the block."""
        snapshot = self.pin()
        try:
            yield snapshot
        finally:
            self.release(snapshot)

    def pinned_snapshots(self) -> int:
        """How many retired snapshots are still pinned (diagnostics)."""
        with self._lock:
            return len(self._retired)

    def add_retirement_hook(self, hook) -> None:
        """Call ``hook(segment)`` when a segment ID leaves the catalog.

        "Leaves" means no current or still-pinned snapshot contains the
        ID any more — i.e. the segment was merged away (not merely
        replaced by :meth:`extend_last`, which reuses the ID) and every
        reader that could still see it has released its pin.  The
        maintenance engine uses this for eviction bookkeeping; the
        catalog itself uses the same path to drop stale
        ``sts3_bitset_bytes_resident{segment=...}`` metric labels.
        """
        self._retirement_hooks.append(hook)

    def _publish(self) -> None:
        """Swap in a new snapshot built from ``_segments`` (lock held)."""
        old = self._snapshot
        self._snapshot = CatalogSnapshot(
            tuple(self._segments), old.generation + 1, tuple(self._quarantined)
        )
        if old._refs > 0:
            self._retired.append(old)
        else:
            self._reclaim(old)

    def _live_ids(self) -> set[int]:
        ids = {seg.segment_id for seg in self._snapshot.segments}
        for snapshot in self._retired:
            ids.update(seg.segment_id for seg in snapshot.segments)
        return ids

    def _reclaim(self, snapshot: CatalogSnapshot) -> None:
        """Retire segments only ``snapshot`` still referenced (lock held)."""
        live = self._live_ids()
        for seg in snapshot.segments:
            if seg.segment_id in live:
                continue
            get_registry().gauge(
                "sts3_bitset_bytes_resident",
                "bytes of bitset/payload currently resident, per segment",
            ).discard_labels(segment=str(seg.segment_id))
            for hook in self._retirement_hooks:
                hook(seg)

    # -- derived views ---------------------------------------------------

    @property
    def n_series(self) -> int:
        """Total series across all segments (excludes any update buffer)."""
        return self._snapshot.n_series

    def offsets(self) -> list[int]:
        """Global index of each segment's first series (cached per snapshot)."""
        return list(self._snapshot.offsets())

    def all_series(self) -> list[np.ndarray]:
        """Every series in global-index order (a fresh list)."""
        return [s for seg in self._snapshot.segments for s in seg.series]

    def _allocate_id(self) -> int:
        segment_id = self._next_id
        self._next_id += 1
        return segment_id

    def _bump(self) -> None:
        """Publish a structural change (lock held by the caller)."""
        self._publish()
        get_registry().gauge(
            "sts3_live_segments", "segments currently in the catalog"
        ).set(len(self._segments))

    def touch(self) -> None:
        """Bump the generation without a structural change.

        Buffered inserts use this: the segment layout is untouched, but
        anything keyed on the generation — calibration, the query-result
        cache — must stop trusting answers computed before the buffer
        changed.
        """
        with self._lock:
            self._publish()

    # -- lifecycle ------------------------------------------------------

    def bootstrap(self, series: list[np.ndarray]) -> Segment:
        """Build the base segment from the initial database series."""
        segment = Segment.build(
            self._allocate_id(), series, self.sigma, self.epsilon,
            value_padding=self.value_padding, context="build",
        )
        with self._lock:
            self._segments.append(segment)
            self._bump()
        return segment

    def seal(
        self, series: list[np.ndarray], grid: Grid, sets: list[np.ndarray]
    ) -> Segment:
        """Seal already-transformed series (a drained buffer) as a segment.

        The buffer's grid and set representations are adopted verbatim,
        so sealing does zero transform work — this is what turns a
        flush from O(|database|) into O(|buffer|).
        """
        with span("segment.seal", series=len(series), segments=len(self._segments) + 1):
            segment = Segment(self._allocate_id(), series, grid, sets)
            with self._lock:
                self._segments.append(segment)
                self._bump()
        get_registry().counter(
            "sts3_segments_sealed_total", "buffer flushes sealed as new segments"
        ).inc()
        return segment

    def extend_last(self, series_item: np.ndarray) -> Segment:
        """Append one in-bound series to the newest segment (direct insert).

        The newest segment is *replaced* (segments are immutable) but
        keeps its segment ID — pinned snapshots go on serving the old
        object, and retirement hooks do not fire for the swap.
        """
        if not self._segments:
            raise ParameterError("cannot extend an empty catalog")
        extended = self._segments[-1].extend(series_item)
        with self._lock:
            self._segments[-1] = extended
            self._bump()
        return extended

    def adopt(self, series: list[np.ndarray], grid: Grid) -> Segment:
        """Append a segment with a *known* grid, re-transforming its series.

        Persistence uses this to reconstruct a catalog bit-identically:
        the archived grid is authoritative (re-deriving it from the
        series would tighten sealed segments' bounds and change
        similarities), only the derived sets are recomputed.
        """
        sets = transform_many(series, grid)
        count_transforms(len(series), "load")
        segment = Segment(self._allocate_id(), series, grid, sets)
        with self._lock:
            self._segments.append(segment)
            self._bump()
        return segment

    def adopt_lazy(
        self, grid: Grid, size: int, loader, payload_bytes: int = 0
    ) -> Segment:
        """Append a mapped segment whose payload loads on first touch.

        The zero-copy counterpart of :meth:`adopt`: the archived grid
        and manifest size are adopted now (enough for planning, offsets
        and ``len``), while series, sets, and transform accounting are
        deferred to :meth:`Segment._materialize` — an untouched segment
        costs no transforms and no resident payload bytes.
        """
        segment = Segment.lazy(
            self._allocate_id(), grid, size, loader, payload_bytes=payload_bytes
        )
        with self._lock:
            self._segments.append(segment)
            self._bump()
        return segment

    def compact(self, min_size: int | None = None) -> int:
        """Merge segments; returns how many segments were merged away.

        With ``min_size=None`` every segment merges into one (a full
        rebuild: new tight bound + ``value_padding``, every series
        re-transformed — bit-identical to constructing from scratch).
        Otherwise each maximal run of *consecutive* segments smaller
        than ``min_size`` is merged, which bounds catalog growth under
        sustained inserts while leaving big segments untouched.
        """
        with self._lock:
            if min_size is None:
                runs = [(0, len(self._segments))] if len(self._segments) > 1 else []
            else:
                if min_size < 1:
                    raise ParameterError(f"min_size must be >= 1, got {min_size}")
                runs, start = [], None
                for i, seg in enumerate(self._segments):
                    if len(seg) < min_size:
                        start = i if start is None else start
                        continue
                    if start is not None and i - start > 1:
                        runs.append((start, i))
                    start = None
                if start is not None and len(self._segments) - start > 1:
                    runs.append((start, len(self._segments)))
            merged_away = 0
            for start, stop in reversed(runs):
                group = self._segments[start:stop]
                series = [s for seg in group for s in seg.series]
                with span("segment.compact", segments=len(group), series=len(series)):
                    merged = Segment.build(
                        self._allocate_id(), series, self.sigma, self.epsilon,
                        value_padding=self.value_padding, context="compact",
                    )
                    self._segments[start:stop] = [merged]
                get_registry().counter(
                    "sts3_rebuilds_total", "segment-merging rebuilds (compactions)"
                ).inc()
                merged_away += len(group) - 1
            if merged_away:
                self._bump()
        return merged_away

    def merge_run(self, start: int, stop: int) -> Segment:
        """Merge segments ``[start, stop)`` into one (synchronous path).

        Used by WAL replay of journaled background merges and by
        offline ``sts3 maintain``: the merged segment is built under
        the lock, bit-identical to the background path — ``Segment.build``
        over the run's series in global order is deterministic, and the
        ID is allocated at swap time either way, so replaying a
        ``merge`` record reproduces the live mutation exactly.
        """
        with self._lock:
            self._check_run(start, stop)
            group = self._segments[start:stop]
            series = [s for seg in group for s in seg.series]
            with span("segment.compact", segments=len(group), series=len(series)):
                merged = Segment.build(
                    self._allocate_id(), series, self.sigma, self.epsilon,
                    value_padding=self.value_padding, context="compact",
                )
                self._segments[start:stop] = [merged]
            get_registry().counter(
                "sts3_rebuilds_total", "segment-merging rebuilds (compactions)"
            ).inc()
            self._bump()
        return merged

    def build_merged(self, run: tuple[Segment, ...]) -> Segment:
        """Build (but do not publish) the merge of ``run`` — off-lock.

        The background engine calls this against a *pinned* snapshot's
        segments so the expensive rebuild happens without holding any
        lock; the result carries a provisional ID and must go through
        :meth:`splice_run` to enter the catalog.
        """
        series = [s for seg in run for s in seg.series]
        return Segment.build(
            -1, series, self.sigma, self.epsilon,
            value_padding=self.value_padding, context="compact",
        )

    def locate_run(self, run: tuple[Segment, ...]) -> int | None:
        """Position of ``run`` as a consecutive identity-slice, or None.

        None means the layout changed under the builder (a concurrent
        compact/flush replaced one of the run's objects) and the
        pre-built merge must be abandoned.  ``extend_last`` only
        replaces the newest segment, so merge plans that exclude it
        stay locatable across direct inserts.
        """
        with self._lock:
            segments = self._segments
            span_len = len(run)
            for start in range(len(segments) - span_len + 1):
                if segments[start] is run[0]:
                    if all(segments[start + i] is run[i] for i in range(span_len)):
                        return start
                    return None
        return None

    def splice_run(
        self, start: int, run: tuple[Segment, ...], merged: Segment
    ) -> Segment:
        """Publish a pre-built merged segment in place of ``run``.

        Re-verifies the identity slice at ``start`` under the lock (the
        caller's ``locate_run`` answer could be stale unless it holds
        the database mutation lock across both calls), assigns the real
        segment ID, and swaps atomically.
        """
        with self._lock:
            segments = self._segments
            stop = start + len(run)
            if stop > len(segments) or any(
                segments[start + i] is not run[i] for i in range(len(run))
            ):
                raise ParameterError("catalog changed under a pre-built merge")
            merged.segment_id = self._allocate_id()
            self._segments[start:stop] = [merged]
            get_registry().counter(
                "sts3_rebuilds_total", "segment-merging rebuilds (compactions)"
            ).inc()
            self._bump()
        return merged

    def _check_run(self, start: int, stop: int) -> None:
        if not (0 <= start < stop <= len(self._segments)) or stop - start < 2:
            raise ParameterError(
                f"invalid merge run [{start}, {stop}) over "
                f"{len(self._segments)} segments"
            )

    def quarantine(self, record: QuarantineRecord) -> None:
        """Record a payload that failed verification during load.

        The catalog keeps serving the segments that did verify; the
        planner marks every query against it degraded
        (``degraded_reason="quarantine"``), and the
        ``sts3_quarantined_segments`` gauge makes the loss visible to
        operators before anyone notices missing neighbours.
        """
        with self._lock:
            self._quarantined.append(record)
            self._publish()
        get_registry().gauge(
            "sts3_quarantined_segments",
            "archive payloads quarantined by checksum verification",
        ).set(len(self._quarantined))

    # -- diagnostics ----------------------------------------------------

    def covering_bound(self) -> Bound:
        """Smallest bound covering every segment's grid bound."""
        return self._snapshot.covering_bound()

    def describe(self) -> list[dict]:
        """Per-segment stats rows, in global-index order."""
        snapshot = self._snapshot
        rows = []
        for offset, seg in zip(snapshot.offsets(), snapshot.segments):
            row = seg.stats()
            row["offset"] = offset
            rows.append(row)
        return rows
