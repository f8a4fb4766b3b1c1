"""Immutable storage segments (the LSM-flavoured half of DESIGN.md §10).

A :class:`Segment` owns one slice of the database: its series, the grid
those series were digitized under, their set representations, and
lazily-built per-segment searchers (naive / inverted-index / pruning /
approximate) plus a batch engine.  Segments are *immutable*: sealing a
flushed update buffer creates a new segment in O(buffer) work, a direct
in-bound insert produces a replacement segment sharing the grid, and
:meth:`~repro.core.catalog.SegmentCatalog.compact` merges segments by
building a fresh one.  Queries never observe a half-updated segment.

Because Jaccard similarity is a function of the grid, every segment
keeps the grid its sets were computed under.  A sealed segment inherits
the update buffer's grid *and* its already-computed sets, which is what
makes a flush O(buffer): no series outside the buffer is re-transformed
(the seed implementation re-transformed the whole database).  The
``sts3_transforms_total`` counter (labelled by ``context``) makes that
cost observable and is asserted in the tests.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from ..exceptions import ParameterError
from ..obs import get_registry, span
from .approximate import ApproximateSearcher
from .batch import BatchQueryEngine, QueryWorkspace
from .bitset import BitsetStore
from .grid import Bound, Grid
from .indexed import IndexedSearcher
from .minhash import MinHashSearcher
from .naive import NaiveSearcher
from .pruning import PruningSearcher
from .setrep import transform

__all__ = ["Segment", "count_transforms", "grid_for_bound"]

#: A segment only packs its sets into a bitset when the matrix costs at
#: most this multiple of the sorted-array footprint.  Packing always
#: helps speed, but on near-disjoint vocabularies (n_series ≫ 64 rows
#: over columns each row barely touches) the matrix would dwarf the
#: sets it mirrors; those segments keep the merge path.
_BITSET_BYTE_RATIO = 4

#: Process-wide monotonic use stamps (``Segment.mark_used``); ordering
#: is all the hot/cold eviction policy needs, so a shared counter —
#: atomic enough under CPython — beats per-segment clocks.
_use_counter = itertools.count(1)


def count_transforms(amount: int, context: str) -> None:
    """Record ``amount`` series-to-set transforms on the shared registry.

    ``context`` labels who paid: ``build`` (initial construction),
    ``extend`` (direct insert), ``buffer`` (update-buffer adds and
    bound-growth re-transforms), ``compact`` (segment merges), or
    ``load`` (persistence).  The O(buffer)-flush acceptance test asserts
    that sealing a buffer adds *no* ``build``/``compact`` transforms.
    """
    if amount:
        get_registry().counter(
            "sts3_transforms_total", "series set-representation transforms, by cause"
        ).inc(amount, context=context)


def grid_for_bound(bound: Bound, sigma: float, epsilon) -> Grid:
    """The σ/ε grid over ``bound`` (per-axis heights when ``epsilon`` is a tuple)."""
    if isinstance(epsilon, tuple):
        return Grid.from_axis_cell_sizes(bound, sigma, epsilon)
    return Grid.from_cell_sizes(bound, sigma, epsilon)


class Segment:
    """One immutable slice of the database: series + grid + set reps.

    ``Neighbor.index`` values returned by the per-segment searchers are
    *segment-local*; the query planner offsets them into global
    positions when merging.  Searchers are built lazily and cached for
    the segment's lifetime — there is no invalidation protocol, because
    a segment's contents never change (mutation produces a new segment).
    """

    def __init__(
        self,
        segment_id: int,
        series: list[np.ndarray],
        grid: Grid,
        sets: list[np.ndarray],
    ):
        if not series:
            raise ParameterError("a segment must own at least one series")
        if len(series) != len(sets):
            raise ParameterError(
                f"segment got {len(series)} series but {len(sets)} set reps"
            )
        self.segment_id = int(segment_id)
        self.grid = grid
        self._series: list[np.ndarray] | None = list(series)
        self._sets: list[np.ndarray] | None = list(sets)
        self._size = len(self._series)
        #: zero-arg payload loader for mmap-backed segments (see
        #: :meth:`lazy`); retained across materialization so
        #: :meth:`release_payload` can drop the payload and re-fault.
        self._loader = None
        self._payload_bytes = 0
        self._init_caches()

    def _init_caches(self) -> None:
        self._naive: NaiveSearcher | None = None
        self._indexed: IndexedSearcher | None = None
        self._pruning: dict[int, PruningSearcher] = {}
        self._approximate: dict[int, ApproximateSearcher] = {}
        self._batch_engine: BatchQueryEngine | None = None
        self._minhash: dict[tuple[int, int], MinHashSearcher] = {}
        self._bitset: BitsetStore | None = None
        self._bitset_decided = False
        #: monotonic use stamp (maintenance LRU ordering); 0 = never
        #: queried.  Stamped by the planner on every segment execution.
        self.last_used = 0
        #: CRC32 of the archive payload this segment was restored from
        #: (format v4 loads only); None for segments built in memory.
        self.payload_crc32: int | None = None
        # Guards lazy materialization, searcher construction and
        # release against the races that remain: the maintenance
        # thread's merge and eviction against the engine thread, and
        # concurrent direct callers of one database.  Reentrant because
        # building a searcher touches sets/bitset under the same lock.
        self._lock = threading.RLock()

    @classmethod
    def build(
        cls,
        segment_id: int,
        series: list[np.ndarray],
        sigma: float,
        epsilon,
        value_padding: float = 0.0,
        context: str = "build",
    ) -> "Segment":
        """Build a segment from raw series: bound → grid → transforms.

        This is the O(n) constructor — one transform per series — used
        for initial construction and compaction.  Sealing a buffer uses
        :class:`Segment` directly with the buffer's grid and sets.
        """
        bound = Bound.of_database(series, value_padding=value_padding)
        grid = grid_for_bound(bound, sigma, epsilon)
        sets = [transform(s, grid) for s in series]
        count_transforms(len(series), context)
        return cls(segment_id, series, grid, sets)

    @classmethod
    def lazy(
        cls,
        segment_id: int,
        grid: Grid,
        size: int,
        loader,
        payload_bytes: int = 0,
    ) -> "Segment":
        """A segment whose payload stays on disk until first touch.

        ``loader`` is a zero-arg callable returning ``{"series": [...],
        "bitset": {"vocab", "matrix"} | absent}`` — persistence passes a
        checksum-verifying view over the mapped v4 archive.  Until the
        first query (or any series/sets access) materializes it, the
        segment costs only its grid and manifest row: ``len`` and
        :meth:`memory_stats` never trigger the load.
        """
        if size < 1:
            raise ParameterError("a segment must own at least one series")
        self = cls.__new__(cls)
        self.segment_id = int(segment_id)
        self.grid = grid
        self._series = None
        self._sets = None
        self._size = int(size)
        self._loader = loader
        self._payload_bytes = int(payload_bytes)
        self._init_caches()
        return self

    @property
    def is_lazy(self) -> bool:
        """True while the payload is not materialized (never, or evicted)."""
        return self._series is None

    @property
    def series(self) -> list[np.ndarray]:
        """The segment's series (materializes a lazy payload)."""
        current = self._series
        while current is None:  # re-check: eviction can race the fault
            self._materialize()
            current = self._series
        return current

    @property
    def sets(self) -> list[np.ndarray]:
        """The segment's set representations (materializes if lazy)."""
        current = self._sets
        while current is None:
            self._materialize()
            current = self._sets
        return current

    @sets.setter
    def sets(self, value: list[np.ndarray]) -> None:
        self._sets = list(value)

    def _materialize(self) -> None:
        """First touch of a lazy payload: load, verify, transform.

        Runs under the segment lock so concurrent segment plans load a
        payload exactly once.  The loader verifies the payload checksum
        on this first touch and raises
        :class:`~repro.exceptions.DatasetError` on a mismatch — by the
        time a mapped archive is queried there is no catalog-load phase
        left to quarantine into.
        """
        with self._lock:
            if self._series is not None:
                return
            with span("segment.materialize", segment=self.segment_id,
                      series=self._size):
                payload = self._loader()
                series = payload["series"]
                self._sets = [transform(s, self.grid) for s in series]
                count_transforms(len(series), "load")
                bitset = payload.get("bitset")
                if bitset is not None and not self._bitset_decided:
                    lengths = np.asarray(
                        [s.size for s in self._sets], dtype=np.int64
                    )
                    self._bitset = BitsetStore.from_parts(
                        bitset["vocab"], bitset["matrix"], lengths
                    )
                    get_registry().gauge(
                        "sts3_bitset_bytes_resident",
                        "packed bitset bytes, by segment and residency",
                    ).set(
                        self._bitset.nbytes,
                        segment=str(self.segment_id),
                        state="mapped",
                    )
                    self._bitset_decided = True
                self._series = list(series)  # last: publishes the load

    def extend(self, series_item: np.ndarray) -> "Segment":
        """Replacement segment with one more (in-bound) series appended.

        Shares the grid and every existing set representation, so only
        the new series is transformed; fresh searcher caches preserve
        the seed's invalidate-on-insert semantics.
        """
        cell_set = transform(series_item, self.grid)
        count_transforms(1, "extend")
        return Segment(
            self.segment_id,
            self.series + [series_item],
            self.grid,
            self.sets + [cell_set],
        )

    def __len__(self) -> int:
        return self._size  # known from the manifest; never materializes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(id={self.segment_id}, series={self._size}, "
            f"cells={self.grid.n_cells})"
        )

    # -- searcher access ------------------------------------------------

    def bitset_store(self) -> BitsetStore | None:
        """The segment's packed bitset, built lazily (None when gated).

        Built at most once per segment; because segments are immutable,
        :meth:`extend` and compaction produce replacement segments with
        fresh (empty) caches, which is the whole invalidation protocol.
        Returns ``None`` when packing would cost more than
        ``_BITSET_BYTE_RATIO`` times the sorted arrays it mirrors.
        """
        if not self._bitset_decided:
            with self._lock:
                if not self._bitset_decided:
                    sorted_bytes = sum(s.nbytes for s in self.sets)
                    # The vocabulary is sorted at most once per segment:
                    # a built index already holds it in postings order.
                    if self._indexed is not None:
                        vocab = self._indexed.vocabulary()
                    else:
                        vocab = np.unique(
                            np.concatenate(self.sets)
                            if sorted_bytes
                            else np.empty(0, dtype=np.int64)
                        )
                    n_words = (vocab.size + 63) // 64
                    packed_bytes = len(self.sets) * n_words * 8
                    if packed_bytes <= max(
                        _BITSET_BYTE_RATIO * sorted_bytes, 4096
                    ):
                        self._bitset = BitsetStore(self.sets, vocab=vocab)
                        get_registry().gauge(
                            "sts3_bitset_bytes_resident",
                            "packed bitset bytes, by segment and residency",
                        ).set(
                            self._bitset.nbytes,
                            segment=str(self.segment_id),
                            state="resident",
                        )
                    self._bitset_decided = True
        return self._bitset

    def naive_searcher(self) -> NaiveSearcher:
        """The segment's cached linear-scan searcher."""
        searcher = self._naive
        if searcher is None:
            with self._lock:
                searcher = self._naive
                if searcher is None:
                    searcher = self._naive = NaiveSearcher(
                        self.sets, bitset=self.bitset_store()
                    )
        return searcher

    def indexed_searcher(self) -> IndexedSearcher:
        """The segment's cached inverted-index searcher."""
        searcher = self._indexed
        if searcher is None:
            with self._lock:
                searcher = self._indexed
                if searcher is None:
                    searcher = self._indexed = IndexedSearcher(self.sets)
        return searcher

    def pruning_searcher(self, scale: int) -> PruningSearcher:
        """The segment's cached zone-pruning searcher for ``scale``."""
        scale = int(scale)
        searcher = self._pruning.get(scale)
        if searcher is None:
            with self._lock:
                searcher = self._pruning.get(scale)
                if searcher is None:
                    searcher = self._pruning[scale] = PruningSearcher(
                        self.sets, self.grid, scale, bitset=self.bitset_store()
                    )
        return searcher

    def approximate_searcher(self, max_scale: int) -> ApproximateSearcher:
        """The segment's cached multi-scale approximate searcher."""
        max_scale = int(max_scale)
        searcher = self._approximate.get(max_scale)
        if searcher is None:
            with self._lock:
                searcher = self._approximate.get(max_scale)
                if searcher is None:
                    searcher = self._approximate[max_scale] = ApproximateSearcher(
                        self.series, self.sets, self.grid.bound, max_scale
                    )
        return searcher

    def minhash_searcher(
        self, num_perm: int = 128, bands: int = 32
    ) -> MinHashSearcher:
        """The segment's cached MinHash/LSH searcher."""
        key = (int(num_perm), int(bands))
        searcher = self._minhash.get(key)
        if searcher is None:
            with self._lock:
                searcher = self._minhash.get(key)
                if searcher is None:
                    searcher = self._minhash[key] = MinHashSearcher(
                        self.sets, num_perm=key[0], bands=key[1]
                    )
        return searcher

    def batch_engine(self, workspace: QueryWorkspace | None = None) -> BatchQueryEngine:
        """The segment's cached vectorized batch kernel.

        The engine receives :meth:`bitset_store` as a supplier, so the
        segment and its batch kernel share one packed matrix — built
        only if the auto-selection (or another searcher) wants it.
        """
        engine = self._batch_engine
        if engine is None:
            with self._lock:
                engine = self._batch_engine
                if engine is None:
                    engine = self._batch_engine = BatchQueryEngine(
                        self.indexed_searcher(),
                        workspace=workspace or QueryWorkspace(),
                        bitset_store=self.bitset_store,
                    )
        return engine

    # -- maintenance hooks (DESIGN.md §15) ------------------------------

    def mark_used(self) -> None:
        """Stamp the segment as just-queried (hot/cold eviction order)."""
        self.last_used = next(_use_counter)

    @property
    def resident_state(self) -> str:
        """``"mapped"`` while the payload lives on disk, else ``"resident"``."""
        return "mapped" if self._series is None else "resident"

    @property
    def evictable(self) -> bool:
        """True when :meth:`release_payload` could free payload bytes.

        Mapped segments (retained loader) can drop everything and
        re-fault; in-memory segments can only shed derived structures
        (bitset, searchers), so they count as evictable only once any
        of those have been built.
        """
        if self._loader is not None and self._series is not None:
            return True
        return self._bitset is not None or bool(self._approximate)

    def resident_bytes(self) -> int:
        """Bytes :meth:`release_payload` accounts against the budget."""
        mem = self.memory_stats()
        return (
            mem["series_bytes"]
            + mem["sorted_sets_bytes"]
            + mem["packed_bitset_bytes"]
            + mem["coarse_levels_bytes"]
        )

    def release_payload(self) -> int:
        """Drop resident state; returns bytes freed (0 when nothing to drop).

        Loader-backed (mapped) segments revert fully to the lazy state —
        series, sets, searchers, and bitset all go; the next touch
        re-faults the payload from the archive and rebuilds derived
        structures bit-identically (``Segment.build``-style determinism:
        the grid is retained, transforms are pure).  In-memory segments
        have no way back to disk, so only derived caches (bitset,
        searchers, coarse levels) are dropped.  In-flight queries that
        already grabbed ``series``/``sets``/searcher references keep
        them alive — eviction never invalidates data under a reader,
        it only unhooks the segment's own references.
        """
        with self._lock:
            mem = self.memory_stats()
            freed = mem["packed_bitset_bytes"] + mem["coarse_levels_bytes"]
            if self._loader is not None and self._series is not None:
                freed += mem["series_bytes"] + mem["sorted_sets_bytes"]
                self._series = None
                self._sets = None
            self._naive = None
            self._indexed = None
            self._pruning = {}
            self._approximate = {}
            self._batch_engine = None
            self._minhash = {}
            self._bitset = None
            self._bitset_decided = False
            if freed:
                get_registry().gauge(
                    "sts3_bitset_bytes_resident",
                    "packed bitset bytes, by segment and residency",
                ).discard_labels(segment=str(self.segment_id))
        return freed

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> dict:
        """Per-segment statistics for catalogs, the CLI, and dashboards."""
        state = self.resident_state  # captured before series materializes
        lengths = [len(s) for s in self.series]
        return {
            "segment_id": self.segment_id,
            "payload_crc32": self.payload_crc32,
            "state": state,
            "last_used": self.last_used,
            "n_series": len(self.series),
            "n_cells": self.grid.n_cells,
            "n_columns": self.grid.n_columns,
            "n_rows": self.grid.n_rows,
            "min_length": min(lengths),
            "median_length": int(np.median(lengths)),
            "max_length": max(lengths),
            "searchers": sorted(
                (["naive"] if self._naive is not None else [])
                + (["index"] if self._indexed is not None else [])
                + [f"pruning[{s}]" for s in self._pruning]
                + [f"approximate[{s}]" for s in self._approximate]
                + (["batch"] if self._batch_engine is not None else [])
                + [f"minhash[{p}/{b}]" for p, b in self._minhash]
                + (["bitset"] if self._bitset is not None else [])
            ),
            "memory": self.memory_stats(),
        }

    def memory_stats(self) -> dict:
        """Resident bytes per set representation (DESIGN.md §11).

        Only representations that have actually been built are
        non-zero; lazily-gated structures report 0 until first use.
        A still-mapped (never touched) segment reports zero resident
        bytes and its archive payload size under
        ``mapped_payload_bytes`` — this accessor never materializes.
        """
        coarse = sum(
            level.nbytes
            for searcher in self._approximate.values()
            for level in searcher.levels.values()
        )
        return {
            "series_bytes": (
                sum(s.nbytes for s in self._series)
                if self._series is not None
                else 0
            ),
            "sorted_sets_bytes": (
                sum(s.nbytes for s in self._sets)
                if self._sets is not None
                else 0
            ),
            "packed_bitset_bytes": (
                self._bitset.nbytes if self._bitset is not None else 0
            ),
            "coarse_levels_bytes": coarse,
            "mapped_payload_bytes": (
                self._payload_bytes if self._series is None else 0
            ),
        }

    def verify_integrity(self, offset: int = 0) -> list[str]:
        """Self-check; series are reported at global position ``offset + i``."""
        problems: list[str] = []
        if len(self.series) != len(self.sets):
            problems.append(
                f"{len(self.series)} series but {len(self.sets)} set reps"
            )
        for i, (series, cell_set) in enumerate(zip(self.series, self.sets)):
            if not self.grid.bound.covers(Bound.of_series(series)):
                problems.append(f"series {offset + i} escapes the database bound")
            fresh = transform(series, self.grid)
            if not np.array_equal(fresh, cell_set):
                problems.append(
                    f"series {offset + i} has a stale set representation"
                )
        if self._naive is not None and self._naive.sets is not self.sets:
            problems.append("cached naive searcher references stale sets")
        if self._indexed is not None and self._indexed.sets is not self.sets:
            problems.append("cached index searcher references stale sets")
        for scale, searcher in self._pruning.items():
            if searcher.sets is not self.sets:
                problems.append(f"cached pruning searcher (scale={scale}) is stale")
        return problems
