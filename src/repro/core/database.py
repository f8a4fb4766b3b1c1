"""User-facing STS3 database: a facade over segments, catalog, planner.

:class:`STS3Database` wires the paper's system together out of three
layers (DESIGN.md §10):

- the **storage layer** (:mod:`repro.core.segment`) of immutable
  segments, each with its own grid, set representations, and searchers;
- the **index-lifecycle layer** (:mod:`repro.core.catalog`), which
  tracks live segments and generation numbers and performs
  seal/extend/compact transitions;
- the **query planner/executor** (:mod:`repro.core.planner`), which
  picks a method per segment and merges per-segment top-k answers
  deterministically.

The paper's semantics are unchanged: k-NN queries with any STS3
variant (``method=`` "naive", "index", "pruning", "approximate",
"minhash", or "auto"), out-of-bound query points via Algorithm 6, and
the lazy
buffered-update strategy of Section 5.3.2 — except that a full buffer
is now *sealed* as a new segment in O(buffer) work instead of
triggering an O(database) rebuild.  :meth:`compact` performs the
deferred merge on demand.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import replace as _dc_replace

import numpy as np

from ..data.normalize import z_normalize
from ..exceptions import EmptyDatabaseError, FollowerWriteError, ParameterError
from ..faults import fault_point
from ..obs import get_registry, span
from ..types import as_series
from .approximate import ApproximateSearcher
from .batch import BatchQueryEngine, QueryWorkspace
from .cache import QueryResultCache
from .catalog import SegmentCatalog
from .grid import Bound, Grid
from .indexed import IndexedSearcher
from .naive import NaiveSearcher
from .planner import METHODS, QueryPlanner
from .pruning import PruningSearcher
from .result import QueryResult
from .segment import count_transforms
from .setrep import transform, transform_query
from .wal import encode_series  # noqa: F401  (re-exported for replay tooling)

__all__ = ["STS3Database", "UpdateBuffer"]

logger = logging.getLogger(__name__)


class UpdateBuffer:
    """Holding area for out-of-bound inserted series (Section 5.3.2).

    The buffer keeps its own bound, which grows to cover each added
    series and is always at least the database bound; set
    representations of buffered series are recomputed whenever the
    bound grows (the buffer is small, so this is cheap).  When the
    buffer fills, :meth:`seal_parts` hands its series, sets, *and grid*
    over to the catalog, which adopts them verbatim as a new segment —
    the already-paid transform work is what makes a flush O(buffer).
    """

    def __init__(self, capacity: int, db_bound: Bound, col_width: float, row_heights: tuple[float, ...]):
        if capacity < 1:
            raise ParameterError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.col_width = col_width
        self.row_heights = row_heights
        self.bound = db_bound
        self.grid = Grid(db_bound, col_width, row_heights)
        self.series: list[np.ndarray] = []
        self.sets: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.series)

    @property
    def full(self) -> bool:
        return len(self.series) >= self.capacity

    def add(self, series: np.ndarray) -> None:
        """Add an out-TS, growing the buffer bound if needed."""
        own = Bound.of_series(series)
        if not self.bound.covers(own):
            self.bound = self.bound.union(own)
            self.grid = Grid(self.bound, self.col_width, self.row_heights)
            self.sets = [transform(s, self.grid) for s in self.series]
            count_transforms(len(self.series), "buffer")
        self.series.append(series)
        self.sets.append(transform(series, self.grid))
        count_transforms(1, "buffer")

    def drain(self) -> list[np.ndarray]:
        """Remove and return all buffered series."""
        out = self.series
        self.series = []
        self.sets = []
        return out

    def seal_parts(self) -> tuple[list[np.ndarray], Grid, list[np.ndarray]]:
        """Empty the buffer, returning ``(series, grid, sets)`` for sealing."""
        series, sets, grid = self.series, self.sets, self.grid
        self.series = []
        self.sets = []
        return series, grid, sets


class STS3Database:
    """Set-based time-series similarity search database.

    Parameters follow DESIGN.md §2: ``sigma`` is the time-axis cell
    width in samples, ``epsilon`` the value-axis cell height.  For
    multi-dimensional series ``epsilon`` may be a sequence with one
    height per value axis (Section 5.1's per-axis ``α_x, α_y``
    variant).  With ``normalize=True`` (default) every series —
    database, inserts, and queries — is z-normalized on the way in,
    matching the paper's standing assumption.

    Storage is segmented: :attr:`catalog` holds the live segments and
    :attr:`planner` answers queries across them.  On a fresh database
    there is exactly one segment, and :attr:`series`, :attr:`sets`, and
    :attr:`grid` expose its live state just as the monolithic
    implementation did.
    """

    def __init__(
        self,
        series: list[np.ndarray],
        sigma: float,
        epsilon: float | tuple[float, ...],
        normalize: bool = True,
        value_padding: float = 0.0,
        buffer_capacity: int = 32,
        default_scale: int = 6,
        default_max_scale: int = 4,
        cache_bytes: int = 0,
        maintenance=None,
    ):
        if not series:
            raise EmptyDatabaseError("cannot build a database from no series")
        self.normalize = normalize
        self.sigma = float(sigma)
        self.epsilon = (
            tuple(float(e) for e in epsilon)
            if isinstance(epsilon, (tuple, list))
            else float(epsilon)
        )
        self.value_padding = float(value_padding)
        self.default_scale = int(default_scale)
        self.default_max_scale = int(default_max_scale)
        self.catalog = SegmentCatalog(
            self.sigma, self.epsilon, value_padding=self.value_padding
        )
        self.catalog.bootstrap([self._prepare(s) for s in series])
        self.planner = QueryPlanner(
            self.catalog,
            default_scale=self.default_scale,
            default_max_scale=self.default_max_scale,
        )
        self._workspace = QueryWorkspace()
        self.buffer = UpdateBuffer(
            buffer_capacity, self.grid.bound, self.grid.col_width, self.grid.row_heights
        )
        #: LRU over complete query answers (DESIGN.md §13), or None
        #: when disabled (``cache_bytes=0``, the default).
        self.result_cache = (
            QueryResultCache(cache_bytes) if cache_bytes > 0 else None
        )
        #: number of buffer flushes (historical name: before the
        #: segmented engine each flush was a full rebuild; now each is
        #: an O(buffer) seal, and Appendix A's ~1/capacity scaling
        #: still holds).
        self.rebuild_count = 0
        #: optional write-ahead log (attach_wal) + the last WAL seq the
        #: source archive covered (0 for a fresh database).
        self.wal = None
        self.wal_seq = 0
        self._replaying = False
        self._follower = False
        # Serializes every structural mutation (insert/flush/compact/
        # merge/checkpoint) against the background maintenance engine;
        # readers never take it — they pin catalog snapshots instead.
        self._mutation_lock = threading.RLock()
        self._maintenance = None
        if maintenance is not None:
            self.enable_maintenance(maintenance)

    @property
    def clock(self):
        """The monotonic-seconds clock deadlines are measured on.

        It is the planner's (injectable) clock, so a serving layer that
        stamps request arrival reads the same time base the planner
        checks budgets against.
        """
        return self.planner.clock

    # -- construction helpers -------------------------------------------

    def _prepare(self, series: np.ndarray) -> np.ndarray:
        # as_series validates shape and rejects NaN/inf at the boundary,
        # where the error message can still name the offending input.
        arr = as_series(series)
        return z_normalize(arr) if self.normalize else arr

    @classmethod
    def _assembly_shell(
        cls,
        sigma: float,
        epsilon: float | tuple[float, ...],
        normalize: bool,
        value_padding: float,
        default_scale: int,
        default_max_scale: int,
    ) -> "STS3Database":
        """A database shell with an *empty* catalog, awaiting segments.

        Persistence adopts segments into ``shell.catalog`` (eagerly or
        lazily) and then calls :meth:`_finish_assembly`; splitting the
        two lets the mmap loader register payload loaders without ever
        materializing a series.
        """
        self = cls.__new__(cls)
        self.normalize = normalize
        self.sigma = float(sigma)
        self.epsilon = (
            tuple(float(e) for e in epsilon)
            if isinstance(epsilon, (tuple, list))
            else float(epsilon)
        )
        self.value_padding = float(value_padding)
        self.default_scale = int(default_scale)
        self.default_max_scale = int(default_max_scale)
        self.catalog = SegmentCatalog(
            self.sigma, self.epsilon, value_padding=self.value_padding
        )
        return self

    def _finish_assembly(
        self,
        buffer_capacity: int,
        cache_bytes: int = 0,
    ) -> None:
        """Wire planner/buffer/caches once the catalog holds segments.

        Touches only segment *grids* (covering bound, buffer anchor),
        never series or sets, so lazy segments stay mapped.
        """
        self.planner = QueryPlanner(
            self.catalog,
            default_scale=self.default_scale,
            default_max_scale=self.default_max_scale,
        )
        self._workspace = QueryWorkspace()
        last = self.catalog.segments[-1].grid
        self.buffer = UpdateBuffer(
            buffer_capacity, self.catalog.covering_bound(),
            last.col_width, last.row_heights,
        )
        self.result_cache = (
            QueryResultCache(cache_bytes) if cache_bytes > 0 else None
        )
        self.rebuild_count = 0
        self.wal = None
        self.wal_seq = 0
        self._replaying = False
        self._follower = False
        self._mutation_lock = threading.RLock()
        self._maintenance = None

    @classmethod
    def from_segments(
        cls,
        payloads: list[tuple[list[np.ndarray], Grid]],
        sigma: float,
        epsilon: float | tuple[float, ...],
        normalize: bool,
        value_padding: float,
        buffer_capacity: int,
        default_scale: int,
        default_max_scale: int,
        cache_bytes: int = 0,
    ) -> "STS3Database":
        """Reassemble a database from per-segment ``(series, grid)`` pairs.

        Persistence uses this to restore a segmented catalog exactly:
        each archived grid is adopted verbatim (series are assumed
        already prepared), so similarities — which depend on each
        segment's grid — survive a round-trip bit-for-bit.
        """
        if not payloads:
            raise EmptyDatabaseError("cannot restore a database from no segments")
        self = cls._assembly_shell(
            sigma, epsilon, normalize, value_padding,
            default_scale, default_max_scale,
        )
        for series, grid in payloads:
            self.catalog.adopt(series, grid)
        self._finish_assembly(buffer_capacity, cache_bytes=cache_bytes)
        return self

    # -- durability -------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Journal every mutation to ``wal`` before applying it.

        With a WAL attached, :meth:`insert`, :meth:`flush`, and
        :meth:`compact` append a record (durable at the log's fsync
        cadence) *before* touching the buffer or catalog, so a crash
        loses at most the unsynced tail — never an acknowledged write.
        Recovery is :func:`repro.core.persistence.recover_database`.
        """
        self.wal = wal

    # -- replication follower mode (docs/replication.md) -------------------

    @property
    def follower(self) -> bool:
        """True while this database is a replication follower."""
        return self._follower

    def set_follower(self, follower: bool = True) -> None:
        """Enter (or, on promotion, leave) follower apply mode.

        A follower's only legal mutations arrive as shipped WAL records
        applied through
        :func:`repro.core.persistence.apply_wal_records` — local
        ``insert``/``flush``/``compact``/``merge_run``/``checkpoint``
        calls raise :class:`~repro.exceptions.FollowerWriteError`, so a
        misrouted write can never fork the follower's history from the
        primary's.  Promotion flips the flag off and re-attaches a live
        WAL (:meth:`attach_wal`), after which the database journals and
        serves writes exactly like any primary.
        """
        self._follower = bool(follower)

    def _require_writable(self, op: str) -> None:
        if self._follower and not self._replaying:
            raise FollowerWriteError(
                f"{op} rejected: this database is a replication follower "
                "(writes arrive only via shipped WAL records; promote first)"
            )

    def close(self) -> None:
        """Stop maintenance, sync and release the WAL (safe to call twice)."""
        self.stop_maintenance()
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    # -- background maintenance (DESIGN.md §15) ---------------------------

    @property
    def maintenance(self):
        """The attached :class:`~repro.core.maintenance.MaintenanceEngine`, or None."""
        return self._maintenance

    def enable_maintenance(self, config=None, start: bool | None = None):
        """Attach (and optionally start) a background maintenance engine.

        ``config`` is a :class:`~repro.core.maintenance.MaintenanceConfig`
        (default-constructed when None).  ``start=None`` honours
        ``config.auto_start``; pass ``start=False`` to attach an engine
        that only runs when :meth:`MaintenanceEngine.run_pending` /
        ``run_until_idle`` are called explicitly (deterministic tests,
        offline ``sts3 maintain``).  Replaces any previous engine.
        """
        from .maintenance import MaintenanceConfig, MaintenanceEngine

        if config is None:
            config = MaintenanceConfig()
        self.stop_maintenance()
        self._maintenance = MaintenanceEngine(self, config)
        if config.auto_start if start is None else start:
            self._maintenance.start()
        return self._maintenance

    def stop_maintenance(self) -> None:
        """Stop and detach the maintenance engine (no-op without one)."""
        if self._maintenance is not None:
            self._maintenance.stop()
            self._maintenance = None

    def maintenance_status(self) -> dict:
        """Maintenance health for ``/healthz`` and ``sts3 inspect``.

        Always answerable — without an engine the trigger/budget fields
        are None but the observed values (live segments, WAL lag, bytes
        resident) still report, so operators can see a database falling
        behind before deciding to attach maintenance.
        """
        snapshot = self.catalog.current()
        status = {
            "live_segments": len(snapshot.segments),
            "max_segments": None,
            "wal_lag": (
                self.wal.records_since_checkpoint if self.wal is not None else 0
            ),
            "checkpoint_every": None,
            "resident_bytes": sum(
                seg.resident_bytes() for seg in snapshot.segments
            ),
            "memory_budget_bytes": None,
            "pinned_snapshots": self.catalog.pinned_snapshots(),
            "engine": None,
        }
        if self._maintenance is not None:
            status.update(self._maintenance.status())
        return status

    def checkpoint(self, path, **kwargs) -> None:
        """Persist to ``path`` atomically (archives + retires WAL files).

        A mutation-locked wrapper over
        :func:`repro.core.persistence.save_database`, so the archive
        never captures a half-applied insert or merge; the maintenance
        engine's checkpoint cadence and operators share this entry.
        """
        from .persistence import save_database

        with self._mutation_lock:
            self._require_writable("checkpoint")
            save_database(self, path, **kwargs)

    def _wal_append(self, op: str, **fields) -> None:
        # During recovery the records being applied are already on
        # disk; re-journaling them would double history on every crash.
        if self.wal is not None and not self._replaying:
            self.wal.append(op, **fields)

    # -- storage views ---------------------------------------------------

    @property
    def series(self) -> list[np.ndarray]:
        """All stored series in global-index order (excludes the buffer).

        On a single-segment catalog this is the segment's *live* list;
        with multiple segments it is a fresh concatenation.
        """
        segments = self.catalog.segments
        if len(segments) == 1:
            return segments[0].series
        return [s for seg in segments for s in seg.series]

    @property
    def sets(self) -> list[np.ndarray]:
        """All set representations in global-index order.

        Sets from different segments are *not* comparable — each is
        digitized under its own segment grid.  Same single-segment
        liveness rule as :attr:`series`.
        """
        segments = self.catalog.segments
        if len(segments) == 1:
            return segments[0].sets
        return [s for seg in segments for s in seg.sets]

    @sets.setter
    def sets(self, value: list[np.ndarray]) -> None:
        segments = self.catalog.segments
        if len(segments) != 1:
            raise ParameterError(
                "sets can only be replaced wholesale on a single-segment "
                "database; use the catalog for segmented stores"
            )
        segments[0].sets = list(value)

    @property
    def grid(self) -> Grid:
        """The base segment's grid (queries' reference frame for ties)."""
        return self.catalog.segments[0].grid

    def __len__(self) -> int:
        return self.catalog.n_series + len(self.buffer)

    # -- searcher access -------------------------------------------------

    def naive_searcher(self) -> NaiveSearcher:
        """The base segment's cached linear-scan searcher."""
        return self.catalog.segments[0].naive_searcher()

    def indexed_searcher(self) -> IndexedSearcher:
        """The base segment's cached inverted-index searcher."""
        return self.catalog.segments[0].indexed_searcher()

    def pruning_searcher(self, scale: int | None = None) -> PruningSearcher:
        """The base segment's cached zone-pruning searcher."""
        scale = self.default_scale if scale is None else int(scale)
        return self.catalog.segments[0].pruning_searcher(scale)

    def batch_engine(self) -> BatchQueryEngine:
        """The base segment's vectorized batch kernel."""
        return self.catalog.segments[0].batch_engine(self._workspace)

    def approximate_searcher(self, max_scale: int | None = None) -> ApproximateSearcher:
        """The base segment's cached multi-scale approximate searcher."""
        max_scale = self.default_max_scale if max_scale is None else int(max_scale)
        return self.catalog.segments[0].approximate_searcher(max_scale)

    def minhash_searcher(self, num_perm: int = 128, bands: int = 32):
        """The base segment's cached MinHash/LSH searcher."""
        return self.catalog.segments[0].minhash_searcher(num_perm, bands)

    def _auto_method(self) -> str:
        return self.planner.resolve_auto()

    @property
    def _calibrated_method(self) -> str | None:
        return self.planner.calibrated_method

    def calibrate(self, sample_queries: list[np.ndarray], k: int = 1) -> dict[str, float]:
        """Measure the exact variants on sample queries; fix ``auto``.

        Runs the naive, index, and pruning searchers over the sample
        and pins ``method="auto"`` to the measured fastest (the
        approximate variant is excluded — auto-dispatch must never
        silently trade exactness).  Each variant answers one untimed
        warm-up query first, so what is compared is steady-state search
        and not who builds its structures fastest, and the timed loop
        drives the planner directly, past the result cache.  Returns
        the per-variant seconds for inspection; call again with new
        samples to re-calibrate.
        """
        if not sample_queries:
            raise ParameterError("calibration needs at least one sample query")
        prepared = [self._prepare(query) for query in sample_queries]
        timings: dict[str, float] = {}
        for method in ("naive", "index", "pruning"):
            self.planner.execute(prepared[0], k, method, buffer=self.buffer)
            start = time.perf_counter()
            for sample in prepared:
                self.planner.execute(sample, k, method, buffer=self.buffer)
            timings[method] = time.perf_counter() - start
        self.planner.calibrated_method = min(timings, key=timings.get)
        return timings

    # -- queries -----------------------------------------------------------

    def transform_query(self, series: np.ndarray) -> np.ndarray:
        """Set representation of a (possibly out-of-bound) query.

        Computed under the *base* segment's grid; per-segment query
        sets used during execution are built by the planner.
        """
        return transform_query(self._prepare(series), self.grid)

    def query(
        self,
        series: np.ndarray,
        k: int = 1,
        method: str = "auto",
        scale: int | None = None,
        max_scale: int | None = None,
        deadline_ms: float | None = None,
        deadline_start: float | None = None,
    ) -> QueryResult:
        """k-NN query under the Jaccard similarity of set representations.

        Returns neighbours ordered best-first; ``Neighbor.index``
        refers to global :attr:`series` positions, with buffered series
        indexed after the stored segments (their positions are stable
        across the eventual flush).

        ``method="auto"`` (the default) is the calibrated method while
        :meth:`calibrate`'s measurement is current, otherwise
        ``"index"`` — always exact.

        ``deadline_ms`` opts into graceful degradation (DESIGN.md §12):
        segments that would start past the budget are skipped — the
        result then names them and reports ``complete=False`` with a
        ``degraded_reason`` instead of blowing the latency budget or
        raising.  The method never changes under a deadline.
        ``deadline_start`` (a :attr:`clock` reading) backdates the
        budget to a request's arrival time so queue wait counts too —
        the serving layer's hook (docs/serving.md); ignored without
        ``deadline_ms``.
        """
        if method not in METHODS:
            raise ParameterError(f"unknown method {method!r}; one of {METHODS}")
        if method == "auto":
            method = self._auto_method()
        with span("query", method=method, k=k):
            prepared = self._prepare(series)
            cache = self.result_cache
            # Deadline-bounded answers depend on the wall clock and are
            # never cached (nor served from the cache: a cached complete
            # answer is *better* than a degraded one, but replaying it
            # would make deadline behaviour untestable).
            if cache is not None and deadline_ms is None:
                key = self._result_cache_key(prepared, k, method, scale, max_scale)
                cached = cache.get(key)
                if cached is not None:
                    result = self._clone_result(cached)
                else:
                    result = self.planner.execute(
                        prepared, k, method, scale=scale, max_scale=max_scale,
                        buffer=self.buffer, deadline_ms=None,
                    )
                    self._cache_store(key, result)
            else:
                result = self.planner.execute(
                    prepared, k, method, scale=scale, max_scale=max_scale,
                    buffer=self.buffer, deadline_ms=deadline_ms,
                    deadline_start=deadline_start,
                )
        get_registry().counter(
            "sts3_queries_total", "k-NN queries answered, by search variant"
        ).inc(method=method)
        return result

    # -- result-cache plumbing (DESIGN.md §13) ---------------------------

    def _result_cache_key(
        self,
        prepared: np.ndarray,
        k: int,
        method: str,
        scale: int | None,
        max_scale: int | None,
    ) -> tuple:
        """Cache key over everything a complete answer depends on.

        The catalog generation component is the invalidation wire:
        insert/flush/compact all bump it, so entries for the old state
        simply stop being addressable.  ``scale``/``max_scale`` are
        resolved to their defaults first, so explicit-default and
        implicit calls share entries.
        """
        resolved_scale = self.default_scale if scale is None else int(scale)
        resolved_max = (
            self.default_max_scale if max_scale is None else int(max_scale)
        )
        payload = repr(prepared.shape).encode() + np.ascontiguousarray(
            prepared
        ).tobytes()
        return QueryResultCache.key(
            payload, k, method, resolved_scale, resolved_max,
            self.epsilon, self.catalog.generation,
        )

    @staticmethod
    def _clone_result(result: QueryResult) -> QueryResult:
        """A detached copy: callers may mutate results; the cache keeps its own."""
        return QueryResult(
            neighbors=list(result.neighbors),
            stats=_dc_replace(result.stats),
            complete=result.complete,
            skipped_segments=list(result.skipped_segments),
            degraded_reason=result.degraded_reason,
            skipped_shards=list(result.skipped_shards),
        )

    def _cache_store(self, key: tuple, result: QueryResult) -> None:
        """Cache a complete answer (degraded ones must never replay)."""
        if result.complete:
            nbytes = 120 * len(result.neighbors) + 512  # neighbors + stats + key
            self.result_cache.put(key, self._clone_result(result), nbytes)

    def query_batch(
        self,
        queries: list[np.ndarray],
        k: int = 1,
        method: str = "auto",
        scale: int | None = None,
        max_scale: int | None = None,
        deadline_ms: float | None = None,
        deadline_start: float | None = None,
    ) -> list[QueryResult]:
        """Answer many queries in one call.

        With ``method="index"`` — which the default ``"auto"`` means
        unless :meth:`calibrate` pinned another variant — the whole
        batch runs through the planner's vectorized per-segment
        execution — one CSR pass over each index-planned segment's
        inverted index instead of a Python-level loop — which returns
        results identical to per-query :meth:`query` calls.  Every
        other method loops the scalar :meth:`query`.  Buffered series
        are merged per query either way, so results always match scalar
        calls exactly.

        ``deadline_ms`` is a *per-query* budget (see :meth:`query`); it
        routes the batch through the scalar loop too, since the
        vectorized kernel commits to every segment at once and cannot
        skip one mid-pass.  ``deadline_start`` backdates every budget
        to one shared arrival stamp (the serving layer's batch hook).

        The batch runs in this process, one segment after another.  To
        spread it over cores, serve the collection from a
        :class:`~repro.core.shard.ShardedDatabase` (one persistent
        process per shard, DESIGN.md §16).
        """
        if method not in METHODS:
            raise ParameterError(f"unknown method {method!r}; one of {METHODS}")
        if method == "auto":
            method = self._auto_method()
        get_registry().counter(
            "sts3_batch_queries_total", "queries answered through query_batch"
        ).inc(len(queries), method=method)
        with span("query_batch", method=method, queries=len(queries)):
            # First-use searcher construction gets its own stage, so a
            # cold batch does not bill it to ``filter``.
            with span("build_index", method=method):
                if method == "index":
                    self.indexed_searcher()
                elif method == "pruning":
                    self.pruning_searcher(scale)
                elif method == "approximate":
                    self.approximate_searcher(max_scale)
                elif method == "minhash":
                    self.minhash_searcher()
            if method != "index" or deadline_ms is not None:
                return [
                    self.query(
                        q, k=k, method=method, scale=scale, max_scale=max_scale,
                        deadline_ms=deadline_ms, deadline_start=deadline_start,
                    )
                    for q in queries
                ]
            prepared = [self._prepare(q) for q in queries]
            cache = self.result_cache
            if cache is None:
                return self.planner.execute_batch(
                    prepared, k, method, scale=scale, max_scale=max_scale,
                    buffer=self.buffer, workspace=self._workspace,
                )
            # Per-query cache keys are identical to the scalar path's, so
            # a batch can hit entries that scalar queries populated (and
            # vice versa); only the misses run through the vectorized kernel.
            keys = [
                self._result_cache_key(p, k, method, scale, max_scale)
                for p in prepared
            ]
            out: list[QueryResult | None] = [None] * len(queries)
            misses: list[int] = []
            for i, key in enumerate(keys):
                hit = cache.get(key)
                if hit is not None:
                    out[i] = self._clone_result(hit)
                else:
                    misses.append(i)
            if misses:
                miss_results = self.planner.execute_batch(
                    [prepared[i] for i in misses], k, method,
                    scale=scale, max_scale=max_scale,
                    buffer=self.buffer, workspace=self._workspace,
                )
                for i, result in zip(misses, miss_results):
                    self._cache_store(keys[i], result)
                    out[i] = result
            return out  # type: ignore[return-value]

    # -- updates -----------------------------------------------------------

    def insert(self, series: np.ndarray) -> dict:
        """Add a series; out-of-bound series go through the lazy buffer.

        An in-bound series extends the newest segment directly (its
        searcher caches are rebuilt lazily).  An out-TS lands in the
        buffer; when the buffer fills it is *sealed* as a new segment —
        O(buffer) work, since the buffer's grid and set representations
        are adopted as-is (Section 5.3.2's refresh, deferred further to
        :meth:`compact`).

        Returns where the series landed: ``{"n_series", "buffered",
        "path", "sealed_segment"}``, with ``path`` ``"direct"`` or
        ``"buffered"`` and ``sealed_segment`` True for the insert whose
        buffer fill sealed a new segment.

        With a WAL attached the insert is journaled first, so a crash
        any time after the append (once synced) cannot lose it.
        """
        return self._insert_prepared(self._prepare(series))

    def _insert_prepared(self, prepared: np.ndarray) -> dict:
        """Insert an already-prepared series (the WAL-replay entry point).

        The WAL journals *prepared* series — z-normalization is not
        bitwise idempotent, so replaying raw inputs through
        :meth:`_prepare` again would break the bit-identical-recovery
        contract.  Returns the :meth:`insert` report.
        """
        with self._mutation_lock:
            self._require_writable("insert")
            if self.wal is not None and not self._replaying:
                self.wal.append_series("insert", prepared)
            newest = self.catalog.segments[-1]
            if newest.grid.bound.covers(Bound.of_series(prepared)):
                self.catalog.extend_last(prepared)
                get_registry().counter(
                    "sts3_inserts_total", "series inserted, by destination"
                ).inc(path="direct")
                return self._insert_report("direct", sealed=False)
            self.buffer.add(prepared)
            # Not a structural change, but cached answers computed before
            # the buffer grew are stale — advance the generation so the
            # result cache stops serving them (satellite 4's contract).
            self.catalog.touch()
            get_registry().counter(
                "sts3_inserts_total", "series inserted, by destination"
            ).inc(path="buffered")
            logger.debug(
                "out-of-bound insert buffered (%d/%d)",
                len(self.buffer),
                self.buffer.capacity,
            )
            sealed = self.buffer.full
            if sealed:
                self.flush()
            return self._insert_report("buffered", sealed=sealed)

    def _insert_report(self, path: str, sealed: bool) -> dict:
        return {
            "n_series": len(self),
            "buffered": len(self.buffer),
            "path": path,
            "sealed_segment": sealed,
        }

    def verify_integrity(self) -> list[str]:
        """Self-check the database's internal consistency.

        Returns a list of human-readable problem descriptions (empty
        when everything is consistent).  Checks, per segment:
        series/set parallel lists, every set matches a fresh transform
        under the segment's grid, the segment bound covers every stored
        series, and cached searchers reference the live set lists; plus
        that the buffer bound covers every segment bound.  Intended for
        test harnesses and post-crash diagnostics; cost is one full
        re-transform, so don't call it per query.
        """
        problems: list[str] = []
        for offset, segment in zip(self.catalog.offsets(), self.catalog.segments):
            problems.extend(segment.verify_integrity(offset))
        if not self.buffer.bound.covers(self.catalog.covering_bound()):
            problems.append("buffer bound does not cover the database bound")
        if len(self.buffer.series) != len(self.buffer.sets):
            problems.append("buffer series/sets lists are out of sync")
        return problems

    def flush(self) -> None:
        """Seal the buffered series as a new segment (O(buffer) work)."""
        with self._mutation_lock:
            self._require_writable("flush")
            if not len(self.buffer):
                return
            self._wal_append("flush")
            series, grid, sets = self.buffer.seal_parts()
            logger.info(
                "sealing %d buffered series as segment %d (catalog generation %d)",
                len(series),
                self.catalog._next_id,
                self.catalog.generation,
            )
            with span("flush", flushed=len(series)):
                self.catalog.seal(series, grid, sets)
                # The next buffer anchors at the sealed grid's bound, which
                # covers every earlier segment by induction — preserving
                # the invariant that sealing never shrinks a bound.
                self.buffer = UpdateBuffer(
                    self.buffer.capacity, grid.bound, grid.col_width, grid.row_heights
                )
            self.rebuild_count += 1
            # Rotate at segment seal: generation boundaries then line up
            # with segment boundaries, and a checkpoint retires whole files.
            if self.wal is not None and not self._replaying:
                self.wal.rotate()

    def compact(self, min_size: int | None = None) -> int:
        """Merge segments (Section 5.3.2's deferred full "refresh").

        ``min_size=None`` merges everything into one segment with a
        fresh tight bound — bit-identical to rebuilding the database
        from scratch over the same series.  With ``min_size`` only
        consecutive runs of segments smaller than ``min_size`` merge.
        Returns the number of segments merged away.  If merging changed
        the covering bound, the update buffer is re-anchored (buffered
        series re-transform under the new buffer grid).
        """
        if min_size is not None and min_size < 1:
            # Validate before journaling — a record that cannot replay
            # would poison every future recovery.
            raise ParameterError(f"min_size must be >= 1, got {min_size}")
        with self._mutation_lock:
            self._require_writable("compact")
            self._wal_append("compact", min_size=min_size)
            merged_away = self.catalog.compact(min_size=min_size)
            if merged_away:
                self._reanchor_buffer()
        return merged_away

    def merge_run(self, start: int, stop: int):
        """Merge catalog segments ``[start, stop)`` synchronously.

        The journaled building block behind background maintenance:
        WAL replay (op ``"merge"``), offline ``sts3 maintain``, and the
        benchmarks' stop-the-world baseline all apply merges through
        here, so a replayed/offline merge sequence reproduces the
        background engine's layout (and therefore its answers) exactly.
        Returns the merged :class:`~repro.core.segment.Segment`.
        """
        with self._mutation_lock:
            self._require_writable("merge")
            if not self._replaying:
                fault_point("maintenance.merge.journal")
            self._wal_append("merge", start=int(start), stop=int(stop))
            if not self._replaying:
                fault_point("maintenance.merge.publish")
            merged = self.catalog.merge_run(int(start), int(stop))
            self._reanchor_buffer()
            if not self._replaying:
                fault_point("maintenance.merge.done")
        return merged

    def publish_merge(self, run, merged) -> bool:
        """Publish a merge the maintenance engine built off-lock.

        ``run`` is the consecutive segment tuple the engine planned
        against (from a pinned snapshot); ``merged`` the pre-built
        replacement.  If the layout moved underneath (a concurrent
        compact or a seal replaced one of the run's objects) nothing is
        published and False is returned — the engine replans.  The WAL
        record is positional and journaled before the swap, exactly as
        :meth:`merge_run` would have written it, so recovery replays
        background merges deterministically.
        """
        with self._mutation_lock:
            self._require_writable("merge")
            start = self.catalog.locate_run(run)
            if start is None:
                return False
            if not self._replaying:
                fault_point("maintenance.merge.journal")
            self._wal_append("merge", start=start, stop=start + len(run))
            if not self._replaying:
                fault_point("maintenance.merge.publish")
            self.catalog.splice_run(start, run, merged)
            self._reanchor_buffer()
            if not self._replaying:
                fault_point("maintenance.merge.done")
            return True

    def _reanchor_buffer(self) -> None:
        """Re-anchor the buffer if merging shrank the covering bound.

        Merged segments get fresh *tight* bounds, so the union can only
        shrink or stay — a buffer anchored at the old covering bound
        still covers the new one and this is normally a no-op; the
        re-anchor path survives for full compactions that rebuilt the
        base segment's padding.  Caller holds the mutation lock.
        """
        covering = self.catalog.covering_bound()
        if not self.buffer.bound.covers(covering):
            pending = self.buffer.drain()
            last = self.catalog.segments[-1].grid
            self.buffer = UpdateBuffer(
                self.buffer.capacity, covering, last.col_width, last.row_heights
            )
            for series_item in pending:
                self.buffer.add(series_item)
