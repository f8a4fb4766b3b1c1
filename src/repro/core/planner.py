"""Per-segment query planning and execution (DESIGN.md §10).

:class:`QueryPlanner` turns ``(query, k, method)`` into one
:class:`SegmentPlan` per live segment, runs each segment under its
own grid — the batch engine for ``index``, one query or many, else the
method's searcher — and merges the per-segment top-k (plus the update
buffer) with the deterministic ``(similarity desc, index asc)``
tie-break — the Lernaean-Hydra-style per-partition answer merge, but
with bit-exact parity guarantees against the pre-segmented engine:

- On a single-segment catalog with an empty buffer the planner returns
  the segment result *unchanged* — same neighbours, same stats as the
  seed's monolithic path.
- Delta segments (sealed buffers) are always searched *exactly*, even
  when ``method="approximate"`` was requested: the seed scanned the
  buffer exhaustively, and a sealed buffer keeps that contract.  The
  requested method runs verbatim on the base segment only.
- Merged statistics are the counter-wise sums over segments plus the
  buffer's exhaustive scan, exactly reproducing the seed's
  ``_merge_buffer`` accounting.

Planning is method + segment-size aware: ``auto`` is the calibrated
method (from ``STS3Database.calibrate``) or else ``index``; tiny delta
segments run the naive scan because index/pruning structures cost more
than they save below :data:`SMALL_SEGMENT` series.  A plan's method is
never rewritten after planning: the only deadline degradation is a
*skipped* segment, named on the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..obs import get_registry, span
from .batch import QueryWorkspace
from .catalog import SegmentCatalog
from .heap import KnnHeap
from .jaccard import jaccard
from .result import QueryResult, SearchStats
from .segment import Segment
from .setrep import transform_query

__all__ = [
    "METHODS",
    "QueryPlanner",
    "SegmentPlan",
    "SMALL_SEGMENT",
]

#: every ``method=`` a query accepts — the one list the database, the
#: shard coordinator and the CLI validate against.
METHODS = ("naive", "index", "pruning", "approximate", "minhash", "auto")

#: below this many series a delta segment is scanned naively — building
#: postings/zone tables for a handful of series costs more than the
#: exhaustive scan they would accelerate.
SMALL_SEGMENT = 64


@dataclass(frozen=True)
class SegmentPlan:
    """One segment's slice of a query plan.

    ``offset`` is the global index of the segment's first series: the
    executor adds it to segment-local neighbour indices when merging.
    ``kernel`` is filled in during execution: the batch-engine kernel
    ("postings"/"dense"/"bitset") that answered an index-planned segment,
    or ``"scalar"`` for per-query searcher paths.  Plans of the last
    execution are kept on :attr:`QueryPlanner.last_plans`.
    """

    segment_id: int
    offset: int
    method: str
    kernel: str | None = None


class QueryPlanner:
    """Plans and executes k-NN queries across a segment catalog."""

    def __init__(
        self,
        catalog: SegmentCatalog,
        default_scale: int = 6,
        default_max_scale: int = 4,
    ):
        self.catalog = catalog
        self.default_scale = int(default_scale)
        self.default_max_scale = int(default_max_scale)
        self._calibrated: tuple[int, str] | None = None
        #: plans of the most recent execute/execute_batch call, with
        #: their executed kernels recorded (diagnostic).
        self.last_plans: list[SegmentPlan] = []
        #: monotonic-seconds clock for deadline accounting — injectable
        #: so degradation tests advance time deterministically.
        self.clock = time.monotonic

    @property
    def calibrated_method(self) -> str | None:
        """The method ``calibrate`` pinned, or None once the catalog changed.

        Calibration is recorded against the catalog generation it was
        measured on; any structural change (insert, seal, compact)
        silently invalidates it, matching the seed's
        invalidate-on-insert semantics without an explicit hook.
        """
        if self._calibrated is None:
            return None
        generation, method = self._calibrated
        return method if generation == self.catalog.generation else None

    @calibrated_method.setter
    def calibrated_method(self, method: str | None) -> None:
        self._calibrated = (
            None if method is None else (self.catalog.generation, method)
        )

    # -- planning -------------------------------------------------------

    def resolve_auto(self) -> str:
        """The variant ``method="auto"`` runs: calibrated, else ``index``.

        While ``calibrate``'s measurement is current its fastest exact
        variant wins.  Otherwise ``index`` — the exact variant whose
        work is bounded by postings touched and the one the batch
        kernels vectorise (EXPERIMENTS.md records why Section 4's
        length ladder lost).  O(1): no segment payload is read, so a
        lazily mapped segment stays unmapped.
        """
        return self.calibrated_method or "index"

    def plan(self, method: str, snapshot=None) -> list[SegmentPlan]:
        """Per-segment plans for a resolved (non-``auto``) method.

        ``snapshot`` (a pinned :class:`~repro.core.catalog.CatalogSnapshot`)
        freezes the layout being planned; without one the current
        snapshot is read — fine for a single call, but executors that
        plan and run must pass the same snapshot to both.
        """
        segments = (
            self.catalog.segments if snapshot is None else snapshot.segments
        )
        plans, offset = [], 0
        for position, segment in enumerate(segments):
            plans.append(
                SegmentPlan(
                    segment_id=segment.segment_id,
                    offset=offset,
                    method=self._segment_method(position, segment, method),
                )
            )
            offset += len(segment)
        return plans

    def _segment_method(self, position: int, segment: Segment, method: str) -> str:
        if position == 0:
            # The base segment honours the request verbatim — including
            # ``approximate``, whose filtering contract is defined
            # against the big segment.
            return method
        # Delta segments are always searched exactly: the seed scanned
        # the update buffer exhaustively, and sealing must not silently
        # make buffered series approximate.
        if len(segment) < SMALL_SEGMENT:
            return "naive"
        if method in ("approximate", "minhash"):
            return "index"
        return method

    # -- execution ------------------------------------------------------

    def execute(
        self,
        prepared: np.ndarray,
        k: int,
        method: str,
        scale: int | None = None,
        max_scale: int | None = None,
        buffer=None,
        deadline_ms: float | None = None,
        deadline_start: float | None = None,
    ) -> QueryResult:
        """Answer one prepared query: :meth:`execute_batch` of one."""
        return self.execute_batch(
            [prepared], k, method, scale=scale, max_scale=max_scale,
            buffer=buffer, deadline_ms=deadline_ms,
            deadline_start=deadline_start,
        )[0]

    def execute_batch(
        self,
        prepared_queries: list[np.ndarray],
        k: int,
        method: str,
        scale: int | None = None,
        max_scale: int | None = None,
        buffer=None,
        workspace: QueryWorkspace | None = None,
        deadline_ms: float | None = None,
        deadline_start: float | None = None,
    ) -> list[QueryResult]:
        """Answer prepared (validated/normalized) queries, in input order.

        Segments planned as ``index`` run the whole batch through their
        :class:`~repro.core.batch.BatchQueryEngine` (``workspace`` seeds
        a new engine's scratch); other segments loop their searcher.

        ``deadline_ms`` arms the degradation ladder, exact → skipped:
        every segment runs its planned method, and a segment that would
        *start* past the budget is skipped instead (the first segment
        always runs, so the answer is never empty).  The budget is per
        query, so each query then runs as its own one-query pass.
        Quarantined payloads on the catalog degrade the answer
        unconditionally.  Degraded answers carry ``complete=False``,
        the reason and the names of what is missing — the
        Lernaean-Hydra serving stance: a timely partial answer over a
        late complete one or an exception, and never a silently
        different method.

        ``deadline_start`` anchors the budget at an *earlier*
        :attr:`clock` reading: the serving layer stamps each request at
        arrival and passes the stamp through, so time spent queued
        behind other requests counts against the budget exactly like
        time spent searching (docs/serving.md).  ``None`` (the default)
        starts each query's budget when its pass starts.
        """
        if deadline_ms is not None and len(prepared_queries) > 1:
            return [
                self.execute_batch(
                    [prepared], k, method, scale, max_scale, buffer,
                    workspace, deadline_ms, deadline_start,
                )[0]
                for prepared in prepared_queries
            ]
        scale = self.default_scale if scale is None else int(scale)
        max_scale = self.default_max_scale if max_scale is None else int(max_scale)
        # Pin the catalog for the whole request: a background merge can
        # swap the segment set mid-query without this read ever seeing
        # a half-updated layout (the old snapshot's segments stay alive
        # until the pin releases).
        with self.catalog.pinned() as snapshot:
            segments = snapshot.segments
            with span("plan", method=method, segments=len(segments),
                      queries=len(prepared_queries)):
                plans = self.plan(method, snapshot)
            skipped: list[str] = [q.name for q in snapshot.quarantined]
            reasons = {"quarantine"} if skipped else set()
            if deadline_ms is None:
                start = 0.0
            elif deadline_start is None:
                start = self.clock()
            else:
                start = float(deadline_start)

            per_segment: list[list[QueryResult]] = []
            executed_plans: list[SegmentPlan] = []
            for position, (segment, plan) in enumerate(zip(segments, plans)):
                # The budget is read when the segment *starts*, so a
                # blown deadline cancels plans that have not begun.
                if deadline_ms is not None:
                    elapsed_ms = (self.clock() - start) * 1000.0
                    if elapsed_ms >= deadline_ms and position > 0:
                        reasons.add("deadline")
                        skipped.append(f"segment-{segment.segment_id}")
                        continue
                if plan.method == "index":
                    segment.mark_used()
                    engine = segment.batch_engine(workspace)
                    with span("transform", queries=len(prepared_queries),
                              segment=segment.segment_id):
                        sets = [transform_query(p, segment.grid) for p in prepared_queries]
                    per_segment.append(engine.query_batch(sets, k=k))
                    # the one kernel the engine picked, for diagnostics
                    kernel = engine.last_kernels[-1] if sets else None
                else:
                    per_segment.append([
                        self._run_segment(segment, plan.method, p, k, scale, max_scale)
                        for p in prepared_queries
                    ])
                    kernel = "scalar"
                plans[position] = replace(plan, kernel=kernel)
                executed_plans.append(plans[position])
            self.last_plans = plans
            if not reasons and len(per_segment) == 1 and not (
                buffer is not None and len(buffer)
            ):
                return per_segment[0]
            merged = [
                self._merge(
                    [res[qi] for res in per_segment], executed_plans,
                    prepared, k, buffer, snapshot,
                )
                for qi, prepared in enumerate(prepared_queries)
            ]
            for result in merged if reasons else ():
                self._mark_degraded(result, skipped, reasons)
            return merged

    def _mark_degraded(
        self, result: QueryResult, skipped: list[str], reasons: set[str]
    ) -> None:
        result.complete = False
        result.skipped_segments = list(skipped)
        result.degraded_reason = "+".join(sorted(reasons))
        get_registry().counter(
            "sts3_degraded_queries_total",
            "queries answered incompletely, by reason",
        ).inc(reason=result.degraded_reason)

    def _run_segment(
        self,
        segment: Segment,
        method: str,
        prepared: np.ndarray,
        k: int,
        scale: int,
        max_scale: int,
    ) -> QueryResult:
        """One segment's answer by a per-query searcher (segment-local
        neighbour indices); ``index`` segments go to the batch engine."""
        segment.mark_used()
        with span("transform", segment=segment.segment_id):
            query_set = transform_query(prepared, segment.grid)
        if method == "naive":
            return segment.naive_searcher().query(query_set, k=k)
        if method == "pruning":
            return segment.pruning_searcher(scale).query(query_set, k=k)
        if method == "minhash":
            return segment.minhash_searcher().query(query_set, k=k)
        return segment.approximate_searcher(max_scale).query(
            prepared, query_set, k=k
        )

    def _merge(
        self,
        results: list[QueryResult],
        plans: list[SegmentPlan],
        prepared: np.ndarray,
        k: int,
        buffer,
        snapshot=None,
    ) -> QueryResult:
        """Deterministic global top-k over per-segment answers + buffer.

        The KnnHeap orders by ``(similarity desc, global index asc)``,
        the repo-wide tie-break, so the merge is bit-reproducible no
        matter how the catalog is segmented.  Statistics are summed
        counter-wise; buffered series count as exhaustively-scanned
        candidates, exactly like the seed's ``_merge_buffer``.
        ``snapshot`` supplies the series count consistent with the
        results being merged (falls back to the current catalog).
        """
        n_buffered = len(buffer) if buffer is not None else 0
        n_series = (
            self.catalog.n_series if snapshot is None else snapshot.n_series
        )
        k = min(k, n_series + n_buffered)
        with span("merge", segments=len(results), buffered=n_buffered):
            heap = KnnHeap(k)
            candidates = exact = pruned = rounds = 0
            for result, plan in zip(results, plans):
                stats = result.stats
                candidates += stats.candidates
                exact += stats.exact_computations
                pruned += stats.pruned
                rounds += stats.filter_rounds
                for neighbor in result.neighbors:
                    heap.consider(neighbor.similarity, neighbor.index + plan.offset)
            if n_buffered:
                buffer_query = transform_query(prepared, buffer.grid)
                base = n_series
                for offset, cell_set in enumerate(buffer.sets):
                    heap.consider(jaccard(cell_set, buffer_query), base + offset)
                candidates += n_buffered
                exact += n_buffered
            merged_stats = SearchStats(
                candidates=candidates,
                exact_computations=exact,
                pruned=pruned,
                filter_rounds=rounds,
                final_candidates=len(heap),
            )
        if n_buffered:
            get_registry().counter(
                "sts3_buffer_merges_total",
                "query answers refreshed from the update buffer",
            ).inc()
        return QueryResult(neighbors=heap.neighbors(), stats=merged_stats)
