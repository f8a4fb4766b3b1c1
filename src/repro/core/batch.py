"""Vectorized batch query engine over the inverted index.

Every ``index`` query is answered here — a scalar query as a batch of
one — paying the fixed per-call work once per batch:

1. **Query-side CSR layout** — all query cell sets are concatenated
   into one values array with a parallel query-id row index (the CSR
   representation of the batch's sparse query/cell matrix).
2. **One-pass postings location** — a single pair of
   ``np.searchsorted`` calls against the index vocabulary ranks every
   (query, cell) pair at once; a cell absent from the index (e.g. an
   Algorithm 6 ID) gets an empty rank range.  Through where each
   vocabulary cell's postings run starts, the ranks give each cell's
   run and the exact count of (query, posting) pairs the batch touches
   before any heavy work — which prices the postings regime below —
   and they are the matrix kernels' columns.
3. **Intersection counting**, by one of three regimes:

   - *postings* — Algorithm 3's own counter:
     :meth:`IndexedSearcher.count_runs` fills each query's row from the
     located runs (gather the postings of every query cell,
     ``bincount`` the owners).  Work is proportional to the pairs
     actually touched plus one ``n_series`` counter per query, so it
     wins when intersections are sparse (fine grids) and it is the
     fallback whenever both matrices below are gated out by
     ``dense_limit``.  It is never forced by a ``kernel=`` value.
   - *dense/one-hot kernel* — materialize the database side once as a
     one-hot ``(distinct cells × n_series)`` float32 matrix and compute
     all counters as a BLAS matmul with the batch's one-hot query
     matrix.  Counts are small integers, exact in float32, so results
     are still bit-identical.  On overlap-heavy databases (the gathered
     pairs can approach ``n_queries × total postings``) this turns a
     memory-bound scatter into a compute-bound GEMM and wins by a wide
     margin.
   - *bitset kernel* — pack the database into a
     :class:`~repro.core.bitset.BitsetStore` (one uint64 row of
     ``ceil(vocab/64)`` words per series) and count each query's
     intersections as one ``popcount(matrix & q)`` sweep.  Work is
     ``n_series × n_words`` per query regardless of overlap, so this
     wins on dense-overlap segments with small vocabularies, where the
     gathered-pair count explodes and even the GEMM pays 64x the
     bitset's bytes per cell column.

   The engine picks per batch from a unit-cost model over the exact
   pair/vocabulary counts *and the batch width* (``kernel="auto"``;
   force ``dense`` or ``bitset`` for ablation): a GEMM of a few rows is
   bound by streaming the one-hot matrix, not by flops, so below
   ``_DENSE_ROW_FLOOR`` rows its cost stops falling with width and the
   popcount sweep — linear in rows over a 64x smaller matrix — wins; a
   batch of one is never handed to BLAS at all.  The matrices are
   offered only where they beat the postings counter's price.
4. **O(n) top-k per query** — :func:`repro.core.selection.top_k_indices`
   replaces the historical full lexsort, preserving the deterministic
   tie-break (similarity descending, index ascending).

A :class:`QueryWorkspace` keeps every recurring buffer alive between
batches, so steady-state batches allocate (almost) nothing and the
kernels stream through already-faulted pages (first-touch faults on
fresh tens-of-MB allocations can cost an order of magnitude more than
warm writes).  Large batches run in even tiles bounded by counter
cells (``tile_cells``), so peak scratch memory is constant.

The engine returns *exactly* what the reference
:meth:`IndexedSearcher.query` returns — same neighbours, same
similarities (bit for bit), same ``SearchStats`` counters.
"""

from __future__ import annotations

import threading

import numpy as np

from ..exceptions import ParameterError
from ..obs import get_registry, span
from .bitset import BitsetStore
from .result import Neighbor, QueryResult, SearchStats
from .selection import top_k_indices

__all__ = ["QueryWorkspace", "BatchQueryEngine"]

#: values of ``kernel=``; the postings regime is never forced.
_KERNELS = ("auto", "dense", "bitset")

#: Estimated cost of one gathered (query, posting) pair in the postings
#: counter (slice, concatenate, ``bincount``) relative to one GEMM
#: multiply-add, on the scale ``_BITSET_WORD_COST`` sets.  Fitted on the
#: width sweep (``benchmarks/bench_batch_width.py``, EXPERIMENTS.md "One
#: fallback"): it prices a one-query popcount sweep 1.5x below the
#: postings counter at the end-to-end grid (sigma=3 epsilon=0.58, 20k
#: series), as measured, and above it at epsilon=0.2, where the sweep
#: is 33 words wide and measured 1.5x slower.
_POSTINGS_PAIR_COST = 80

#: Estimated per-query cost of the postings counter per database series
#: (the ``n_series`` counter it zeroes, ``bincount``s into and copies
#: into the tile, ~1 ns each), on the same scale.
_POSTINGS_SERIES_COST = 16

#: Estimated cost of one uint64 word in the bitset sweep (AND + popcount
#: + horizontal add) relative to one GEMM multiply-add.  A word covers
#: 64 vocabulary columns, so a value above 64 means a feasible GEMM
#: outranks the bitset sweep on the same shape once the batch is at
#: least ``_DENSE_ROW_FLOOR`` rows wide — which matches measurement on
#: the reference container (~14 ns/word vs ~0.09 ns/flop through BLAS).
#: The bitset kernel's niches are thin batches (below the row floor)
#: and the regime the ``dense_limit`` gate carves out: its matrix is
#: 64x smaller than the one-hot, so it stays feasible long after the
#: GEMM workspace is priced out.
_BITSET_WORD_COST = 160

#: Rows below which a GEMM's time stops falling with the batch width:
#: the product is then bound by streaming the ``distinct x n_series``
#: one-hot matrix once, not by flops, so 2 rows cost what 16 do (at 10k
#: ECG series 2.5-3.5 ms flat for 2-16 rows, against 0.15 ms/row at
#: width 64: 17-22 rows' worth at 4k, 10k and 20k series alike).  With
#: ``_BITSET_WORD_COST`` it puts the bitset/dense crossover at
#: ``64/160 x floor`` = 8 rows; the width sweep
#: (``benchmarks/bench_batch_width.py``, EXPERIMENTS.md "Batch width x
#: kernel") measures the two level at 6-8 rows.  A floor of 16 priced a
#: 16-row GEMM below the postings counter at sigma=3 epsilon=0.2, where
#: it measured 1.3x slower (EXPERIMENTS.md "One fallback").
_DENSE_ROW_FLOOR = 20


class QueryWorkspace:
    """Reusable scratch buffers for the batch kernels.

    Buffers are requested by name, grown geometrically, and never
    returned to the allocator, so batches of similar shape reuse warm
    pages instead of re-faulting fresh ones.  A workspace is not
    thread-safe; give each worker its own.  It holds no reference to
    any index, so one workspace can serve successive engines across
    database rebuilds.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, size: int, dtype) -> np.ndarray:
        """A 1-D scratch array of at least ``size`` elements.

        Contents are undefined (the kernels overwrite every element
        they read); the returned view is exactly ``size`` long.
        """
        dtype = np.dtype(dtype)
        existing = self._buffers.get(name)
        if existing is None or existing.size < size or existing.dtype != dtype:
            capacity = size if existing is None else max(size, 2 * existing.size)
            existing = np.empty(capacity, dtype=dtype)
            self._buffers[name] = existing
        return existing[:size]

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._buffers.values())


class BatchQueryEngine:
    """One-pass k-NN over the inverted index for a whole query batch.

    Parameters
    ----------
    searcher:
        A built :class:`repro.core.indexed.IndexedSearcher` (its sorted
        postings arrays are read directly).
    workspace:
        Optional :class:`QueryWorkspace` to reuse across batches; a
        private one is created when omitted.
    tile_cells:
        Upper bound on ``tile_queries × n_series`` counter cells
        materialized at once (default 4M ≈ 32 MiB of float64 counters).
    kernel:
        ``"auto"`` (default) chooses per batch; ``"dense"`` /
        ``"bitset"`` force one kernel (used by the ablation bench and
        tests).
    dense_limit:
        Refuse to build the one-hot database matrix beyond this many
        float32 elements (default 64M ≈ 256 MiB).  The packed bitset
        matrix is gated by the same element budget (uint64 words
        instead of float32 cells, i.e. 2x the bytes per element at
        1/64th the elements); an index that fits neither is counted by
        the postings regime.
    bitset_store:
        Optional prebuilt :class:`~repro.core.bitset.BitsetStore` over
        the searcher's sets, or a zero-arg supplier returning one (or
        ``None``) — segments pass their lazy store accessor so engine
        and searchers share one matrix.  Built from the sets on first
        bitset-kernel use when omitted or when the supplier declines.
    """

    def __init__(
        self,
        searcher,
        workspace: QueryWorkspace | None = None,
        tile_cells: int = 4_000_000,
        kernel: str = "auto",
        dense_limit: int = 64_000_000,
        bitset_store=None,
    ):
        if tile_cells < 1:
            raise ParameterError(f"tile_cells must be >= 1, got {tile_cells}")
        if kernel not in _KERNELS:
            raise ParameterError(f"unknown kernel {kernel!r}; one of {_KERNELS}")
        self.searcher = searcher
        self.workspace = workspace if workspace is not None else QueryWorkspace()
        self.tile_cells = int(tile_cells)
        self.kernel = kernel
        self.dense_limit = int(dense_limit)
        self._lengths_f64 = np.asarray(searcher.lengths, dtype=np.float64)
        self._has_empty_set = bool(np.any(searcher.lengths == 0))
        # Index-side artifacts (one-hot, bitset), built lazily on first
        # use.  The lock makes that build happen once when concurrent
        # direct callers of one database reach the same engine together
        # (the serving layer runs every engine call on its event loop,
        # so it never races itself; maintenance drops a segment's
        # engine under the segment lock but never builds into one).
        self._build_lock = threading.Lock()
        self._onehot: np.ndarray | None = None
        #: a BitsetStore, a zero-arg supplier for one, or None.
        self._bitset = bitset_store
        #: regime chosen for each tile of the last query_batch call
        #: (diagnostic, consumed by the benchmark report).
        self.last_kernels: list[str] = []

    # -- batch entry point ----------------------------------------------

    def query_batch(self, query_sets: list[np.ndarray], k: int = 1) -> list[QueryResult]:
        """Answer every query set; results align with the input order."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        n_series = len(self.searcher.sets)
        k = min(k, n_series)
        self.last_kernels = []
        if not query_sets:
            return []
        # Batch-width distribution: count = engine invocations, sum =
        # queries.  The serving layer's request coalescer reads this as
        # its effectiveness signal — how many concurrent single queries
        # each coalescing window actually amortized into one pass
        # (docs/serving.md); size-bucketed, not latency-bucketed.
        get_registry().histogram(
            "sts3_batch_engine_queries",
            "queries handed to the batch engine per invocation",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        ).observe(len(query_sets))

        # The batch-wide postings location is filtering work (it finds
        # how many postings the batch touches), so it shares the
        # "filter" span name with the per-tile counting kernels.
        with span("filter", phase="locate_postings"):
            q_lens = np.asarray([s.size for s in query_sets], dtype=np.int64)
            q_indptr = [0, *np.cumsum(q_lens).tolist()]
            q_cells = (
                np.concatenate(query_sets)
                if q_indptr[-1]
                else np.empty(0, dtype=np.int64)
            )
            # One searchsorted pair for the WHOLE batch, into the small,
            # cache-resident vocabulary: cell i of the batch has ranks
            # left[i]:right[i] (empty when absent) and postings run
            # runs[0][i]:runs[1][i]; the runs' total length prices the
            # postings regime, which then counts them without a search.
            distinct = self.searcher.vocabulary()
            left = np.searchsorted(distinct, q_cells, side="left")
            right = np.searchsorted(distinct, q_cells, side="right")
            starts = self.searcher.postings_starts()
            runs = (starts[left], starts[right])
            total_pairs = int((runs[1] - runs[0]).sum())

        # The choice is per batch: the dense GEMM's economics depend on
        # the whole batch's width and tiling.
        with span("filter", phase="plan_tiles") as plan:
            tiles = self._tiles(len(query_sets), n_series)
            prices = self._prices(len(query_sets), total_pairs, len(tiles))
            kernel = self._choose_kernel(prices)
            plan.set(kernel=kernel, prices=prices)
        registry = get_registry()
        registry.counter(
            "sts3_batch_tiles_total", "batch-engine tiles run, by chosen kernel"
        ).inc(len(tiles), kernel=kernel)
        registry.counter(
            "sts3_kernel_selected_total",
            "batch-engine kernel selections, by chosen kernel",
        ).inc(kernel=kernel)
        results: list[QueryResult] = []
        for start, stop in tiles:
            cell_slice = slice(q_indptr[start], q_indptr[stop])
            with span("tile", kernel=kernel, queries=stop - start):
                results.extend(
                    self._run_tile(
                        q_lens[start:stop],
                        left[cell_slice],
                        runs[0][cell_slice],
                        runs[1][cell_slice],
                        k,
                        kernel,
                    )
                )
        return results

    def _tiles(self, n_queries: int, n_series: int) -> list[tuple[int, int]]:
        """Even cuts of the batch, each within ``tile_cells`` counters.

        Even, not greedy: the kernel is chosen once per batch at the
        batch's width, and a greedy cut leaves a remainder tile as
        narrow as one row (201 queries over a 200-query budget: a
        200-row GEMM and a GEMV).  No even tile is wider than the
        budget's ``tile_cells // n_series`` rows.
        """
        n_tiles = -(-n_queries // max(1, self.tile_cells // n_series))
        return [
            (n_queries * t // n_tiles, n_queries * (t + 1) // n_tiles)
            for t in range(n_tiles)
        ]

    # -- kernels ---------------------------------------------------------

    def _prices(self, n_queries: int, total_pairs: int, n_tiles: int) -> dict[str, int]:
        """Unit-cost price of every feasible regime for one batch.

        ``postings`` is always priced; ``bitset`` and ``dense`` are
        absent where ``dense_limit`` gates their matrix out (or, for
        the GEMM, where a tile would be one row).
        """
        n_series = len(self.searcher.sets)
        distinct = self.searcher.vocabulary()
        n_words = (distinct.size + 63) // 64
        prices = {
            "postings": total_pairs * _POSTINGS_PAIR_COST
            + n_queries * n_series * _POSTINGS_SERIES_COST,
        }
        if n_series * n_words <= self.dense_limit:
            prices["bitset"] = (
                n_queries * n_series * max(n_words, 1) * _BITSET_WORD_COST
            )
        # The GEMM runs once per (even, cell-bounded) tile, so it is
        # priced per tile and not offered a one-row tile at all: a GEMV
        # streams the whole one-hot matrix for one row, and a threaded
        # BLAS stretches back-to-back ones to scheduler ticks (8 ms
        # where the sweep takes 0.9).  The packed store is 64x smaller
        # under the same ``dense_limit``, so whenever dense is a
        # candidate the bitset sweep is one too.
        if n_queries // n_tiles > 1 and distinct.size * n_series <= self.dense_limit:
            prices["dense"] = (
                max(n_queries, n_tiles * _DENSE_ROW_FLOOR) * distinct.size * n_series
            )
        return prices

    def _choose_kernel(self, prices: dict[str, int]) -> str:
        """The forced kernel, else the cheapest priced regime (ties keep
        the postings counter)."""
        if self.kernel != "auto":
            return self.kernel
        return min(prices, key=prices.__getitem__)

    def _bitset_store(self) -> BitsetStore:
        """The packed database bitmap: supplied, injected, or built once."""
        if not isinstance(self._bitset, BitsetStore):
            with self._build_lock:
                if callable(self._bitset):
                    self._bitset = self._bitset()
                if self._bitset is None:
                    self._bitset = BitsetStore(
                        self.searcher.sets, vocab=self.searcher.vocabulary()
                    )
        return self._bitset

    def _onehot_matrix(self) -> np.ndarray:
        """One-hot (distinct cells × n_series) float32 matrix, built once."""
        if self._onehot is None:
            with self._build_lock:
                if self._onehot is None:
                    distinct = self.searcher.vocabulary()
                    n_series = len(self.searcher.sets)
                    onehot = np.zeros((distinct.size, n_series), dtype=np.float32)
                    rank = np.searchsorted(distinct, self.searcher._cells)
                    onehot.ravel()[rank * n_series + self.searcher._owners] = 1.0
                    self._onehot = onehot
        return self._onehot

    def _counts_dense(
        self,
        counts: np.ndarray,
        q_lens: np.ndarray,
        left: np.ndarray,
        present: np.ndarray,
    ) -> None:
        """One-hot GEMM intersection counting (one tile).

        ``left`` holds each query cell's vocabulary column; cells absent
        from the index (``present`` false: an empty postings run, e.g.
        Algorithm 6 out-of-bound cells) match nothing and are dropped
        from the one-hot rows.
        Counts are sums of 0/1 products bounded by the query set size,
        far below float32's 2^24 exact-integer range, so the GEMM
        result equals the bincount result exactly.
        """
        n_queries, n_series = counts.shape
        rank = left[present]
        if rank.size == 0:
            counts.fill(0.0)
            return
        onehot = self._onehot_matrix()
        width = onehot.shape[0]

        qmat = self.workspace.buffer("qmat", n_queries * width, np.float32).reshape(
            n_queries, width
        )
        qmat.fill(0.0)
        rows = np.repeat(np.arange(n_queries, dtype=np.int64), q_lens)
        qmat.ravel()[rows[present] * width + rank] = 1.0

        out = self.workspace.buffer("gemm", n_queries * n_series, np.float32).reshape(
            n_queries, n_series
        )
        np.matmul(qmat, onehot, out=out)
        np.copyto(counts, out)

    def _counts_bitset(
        self,
        counts: np.ndarray,
        q_lens: np.ndarray,
        left: np.ndarray,
        present: np.ndarray,
    ) -> None:
        """Packed popcount intersection counting (one tile).

        Each query packs into ``n_words`` uint64 words from its cells'
        vocabulary ranks — the store's columns (cells absent from the
        index, e.g. Algorithm 6 IDs, drop out) — and one
        ``popcount(matrix & q)`` sweep yields the exact int64 counts for
        every series, bit-identical to the postings and GEMM counts.
        """
        store = self._bitset_store()
        n_queries = len(q_lens)
        n_series, n_words = store.matrix.shape
        with span(
            "kernel.bitset", rows=n_series * n_queries, words=n_words
        ):
            if n_words == 0:
                counts.fill(0.0)
                return
            rows = np.repeat(np.arange(n_queries, dtype=np.int64), q_lens)
            packed = store.pack_columns(n_queries, rows[present], left[present])
            # Broadcast whole query blocks against the matrix at once;
            # the block size keeps the (block, n_series, n_words) AND
            # scratch within ~16 MiB regardless of shape.
            block = max(1, 2_000_000 // (n_series * n_words))
            for start in range(0, n_queries, block):
                sub = packed[start : start + block]
                inter = sub[:, None, :] & store.matrix[None, :, :]
                counts[start : start + block, :] = store._popcount(inter).sum(
                    axis=2, dtype=np.int64
                )

    # -- tile driver -----------------------------------------------------

    def _run_tile(
        self,
        q_lens: np.ndarray,
        left: np.ndarray,
        run_starts: np.ndarray,
        run_stops: np.ndarray,
        k: int,
        kernel: str,
    ) -> list[QueryResult]:
        n_queries = len(q_lens)
        n_series = len(self.searcher.sets)
        size = n_queries * n_series

        # Counters live in float64: every count is a small integer
        # (exact), and |S|+|Q|-count stays integer-valued, so the final
        # float64 division is bit-identical to the scalar int64 path.
        with span("filter", kernel=kernel):
            counts = self.workspace.buffer("counts", size, np.float64).reshape(
                n_queries, n_series
            )
            self.last_kernels.append(kernel)
            if kernel == "dense":
                self._counts_dense(counts, q_lens, left, run_stops > run_starts)
            elif kernel == "bitset":
                self._counts_bitset(counts, q_lens, left, run_stops > run_starts)
            else:
                cuts = np.cumsum(q_lens)[:-1]
                runs = zip(np.split(run_starts, cuts), np.split(run_stops, cuts))
                for row, (lo, hi) in enumerate(runs):
                    counts[row] = self.searcher.count_runs(lo, hi)

        with span("refine"):
            # The union |S| + |Q| - count is built in the sims buffer and
            # divided in place: every term is a small integer, exact in
            # float64, so the quotient is bit-identical to the scalar
            # path's int64 arithmetic.
            sims = self.workspace.buffer("sims", size, np.float64).reshape(
                n_queries, n_series
            )
            np.subtract(self._lengths_f64, counts, out=sims)
            sims += q_lens[:, None]
            # Scalar parity: sims = where(union > 0, counts / max(union, 1), 1).
            # union == 0 only when query AND series sets are both empty
            # (Jaccard of two empty sets is defined as 1), so the patch-up
            # passes are skipped entirely on indexes without empty sets.
            if self._has_empty_set:
                empty = self.workspace.buffer("empty", size, np.bool_).reshape(
                    n_queries, n_series
                )
                np.equal(sims, 0.0, out=empty)
                np.maximum(sims, 1.0, out=sims)
                np.divide(counts, sims, out=sims)
                sims[empty] = 1.0
            else:
                np.divide(counts, sims, out=sims)

        with span("select_topk"):
            results: list[QueryResult] = []
            for row in range(n_queries):
                row_sims = sims[row]
                order = top_k_indices(row_sims, k)
                neighbors = [
                    Neighbor(similarity=float(row_sims[i]), index=int(i))
                    for i in order
                ]
                touched = int(np.count_nonzero(counts[row]))
                stats = SearchStats(
                    candidates=n_series,
                    exact_computations=touched,
                    pruned=n_series - touched,
                    final_candidates=len(neighbors),
                )
                results.append(QueryResult(neighbors=neighbors, stats=stats))
        return results

