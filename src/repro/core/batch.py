"""Vectorized batch query engine over the inverted index.

The scalar :meth:`IndexedSearcher.query` path pays, per query, the
Python dispatch of ~a dozen numpy calls, a list comprehension over one
postings slice per query cell, fresh counter allocations, and a top-k
selection.  For a *batch* of queries all of that overhead can be paid
once per batch instead of once per query:

1. **Query-side CSR layout** — all query cell sets are concatenated
   into one values array with a parallel query-id row index (the CSR
   representation of the batch's sparse query/cell matrix).
2. **One-pass postings location** — a single pair of
   ``np.searchsorted`` calls against the index's sorted postings
   (``IndexedSearcher._cells``) finds the postings run of every
   (query, cell) pair at once.  The run lengths also reveal, before any
   heavy work, exactly how many (query, posting) pairs the batch
   touches — which drives the kernel choice below.
3. **Intersection counting**, by one of three kernels:

   - *sparse/CSR kernel* — gather every postings run with one fancy
     index and accumulate per-query counters with a single flat
     ``np.bincount`` over ``query_id * n_series + owner`` keys (the
     per-query counter arrays of Algorithm 3, stacked, in one C pass).
     Work is proportional to the pairs actually touched, so this wins
     when intersections are sparse.
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
   force any for ablation): a GEMM of a few rows is bound by streaming
   the one-hot matrix, not by flops, so below ``_DENSE_ROW_FLOOR`` rows
   its cost stops falling with width and the popcount sweep — linear
   in rows over a 64x smaller matrix — wins; a batch of one is never
   handed to BLAS at all.
4. **O(n) top-k per query** — :func:`repro.core.selection.top_k_indices`
   replaces the historical full lexsort, preserving the deterministic
   tie-break (similarity descending, index ascending).

A :class:`QueryWorkspace` keeps every recurring buffer alive between
batches.  This matters twice: steady-state batches allocate (almost)
nothing, and — more importantly on cgroup-limited or overcommitted
hosts, where first-touch page faults on fresh tens-of-MB allocations
can be an order of magnitude slower than warm writes — the kernels only
ever stream through already-faulted pages.  Large batches are processed
in tiles bounded both by counter cells (``tile_cells``) and gathered
pairs (``tile_postings``) so peak scratch memory is constant.

The engine returns *exactly* what the scalar path returns — same
neighbours, same similarities (bit for bit), same ``SearchStats``
counters — so :meth:`STS3Database.query_batch` swaps it in
transparently.
"""

from __future__ import annotations

import threading

import numpy as np

from ..exceptions import ParameterError
from ..obs import get_registry, span
from .bitset import BitsetStore
from .result import Neighbor, QueryResult, SearchStats
from .selection import top_k_indices

__all__ = ["QueryWorkspace", "BatchQueryEngine", "batch_query"]

_KERNELS = ("auto", "sparse", "dense", "bitset")

#: Estimated cost ratio between one gathered (query, posting) pair in
#: the sparse kernel (~7 streaming passes of 8 bytes) and one
#: multiply-add of the dense GEMM (AVX-vectorized float32).  Measured on
#: the reference container; only the order of magnitude matters for the
#: crossover to land in the right regime.
_SPARSE_PAIR_COST = 256

#: Estimated cost of one uint64 word in the bitset sweep (AND + popcount
#: + horizontal add) relative to one GEMM multiply-add.  A word covers
#: 64 vocabulary columns, so a value above 64 means a feasible GEMM
#: outranks the bitset sweep on the same shape once the batch is at
#: least ``_DENSE_ROW_FLOOR`` rows wide — which matches measurement on
#: the reference container (~14 ns/word vs ~0.09 ns/flop through BLAS).
#: The bitset kernel's niches are thin batches (below the row floor)
#: and the regime the ``dense_limit`` gate carves out: its matrix is
#: 64x smaller than the one-hot, so it stays feasible (and beats the
#: sparse gather) long after the GEMM workspace is priced out.
_BITSET_WORD_COST = 160

#: Rows below which a GEMM's time stops falling with the batch width:
#: the product is then bound by streaming the ``distinct x n_series``
#: one-hot matrix once, not by flops, so 2 rows cost what 16 do (at 10k
#: ECG series 2.5-3.5 ms flat for 2-16 rows, against 0.15 ms/row at
#: width 64: 17-22 rows' worth at 4k, 10k and 20k series alike).  With
#: ``_BITSET_WORD_COST`` it puts the bitset/dense crossover at
#: ``64/160 x floor`` = 6.4 rows; the width sweep
#: (``benchmarks/bench_batch_width.py``, EXPERIMENTS.md "Batch width x
#: kernel") measures the two level at 6 rows and dense ahead from 8.
_DENSE_ROW_FLOOR = 16


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
    tile_postings:
        Upper bound on gathered (query, posting) pairs per tile for the
        sparse kernel (default 8M ≈ 64 MiB of int64 scratch).
    kernel:
        ``"auto"`` (default) chooses per batch; ``"sparse"`` /
        ``"dense"`` / ``"bitset"`` force one kernel (used by the
        ablation bench and tests).
    dense_limit:
        Refuse to build the one-hot database matrix beyond this many
        float32 elements (default 64M ≈ 256 MiB); oversized indexes
        always use the sparse kernel.  The packed bitset matrix is
        gated by the same element budget (uint64 words instead of
        float32 cells, i.e. 2x the bytes per element at 1/64th the
        elements).
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
        tile_postings: int = 8_000_000,
        kernel: str = "auto",
        dense_limit: int = 64_000_000,
        bitset_store=None,
    ):
        if tile_cells < 1:
            raise ParameterError(f"tile_cells must be >= 1, got {tile_cells}")
        if tile_postings < 1:
            raise ParameterError(f"tile_postings must be >= 1, got {tile_postings}")
        if kernel not in _KERNELS:
            raise ParameterError(f"unknown kernel {kernel!r}; one of {_KERNELS}")
        self.searcher = searcher
        self.workspace = workspace if workspace is not None else QueryWorkspace()
        self.tile_cells = int(tile_cells)
        self.tile_postings = int(tile_postings)
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
        #: kernel chosen for each tile of the last query_batch call
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
        # which series each query touches), so it shares the "filter"
        # span name with the per-tile counting kernels.
        with span("filter", phase="locate_postings"):
            q_lens = np.asarray([s.size for s in query_sets], dtype=np.int64)
            q_indptr = np.zeros(len(query_sets) + 1, dtype=np.int64)
            np.cumsum(q_lens, out=q_indptr[1:])
            q_cells = (
                np.concatenate(query_sets)
                if q_indptr[-1]
                else np.empty(0, dtype=np.int64)
            )
            # One searchsorted pair for the WHOLE batch: postings runs of
            # every (query, cell) pair, and through them the exact pair
            # counts that drive tiling and kernel choice.
            left = np.searchsorted(self.searcher._cells, q_cells, side="left")
            right = np.searchsorted(self.searcher._cells, q_cells, side="right")
            run_lens = right - left
            pair_cum = np.zeros(run_lens.size + 1, dtype=np.int64)
            np.cumsum(run_lens, out=pair_cum[1:])
            pairs_per_query = pair_cum[q_indptr[1:]] - pair_cum[q_indptr[:-1]]

        # Kernel choice is per batch: the dense GEMM's economics depend
        # on the whole batch's pair count, and only the sparse kernel
        # needs its tiles bounded by gathered pairs (its scratch is
        # pair-sized; the GEMM's is counter-sized).
        with span("filter", phase="plan_tiles"):
            kernel = self._choose_kernel(len(query_sets), int(pair_cum[-1]))
            tiles = self._tiles(pairs_per_query, n_series, kernel)
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
                        query_sets[start:stop],
                        q_lens[start:stop],
                        q_cells[cell_slice],
                        left[cell_slice],
                        run_lens[cell_slice],
                        int(pairs_per_query[start:stop].sum()),
                        k,
                        kernel,
                    )
                )
        return results

    def _tiles(
        self,
        pairs_per_query: np.ndarray,
        n_series: int,
        kernel: str,
    ) -> list[tuple[int, int]]:
        """Query partition honouring the active scratch budgets.

        A greedy pass finds how many tiles the budgets need; the batch
        is then cut into that many tiles of even width, because the
        kernel is chosen once per batch at the batch's width and a
        greedy cut leaves a remainder tile as narrow as one row (201
        queries over a 200-query budget: a 200-row GEMM and a GEMV).
        """
        n_queries = len(pairs_per_query)
        greedy: list[tuple[int, int]] = []
        start = 0
        pairs = 0
        for i in range(n_queries):
            width = (i - start + 1) * n_series
            over_pairs = (
                kernel == "sparse" and pairs + pairs_per_query[i] > self.tile_postings
            )
            if i > start and (width > self.tile_cells or over_pairs):
                greedy.append((start, i))
                start, pairs = i, 0
            pairs += int(pairs_per_query[i])
        greedy.append((start, n_queries))
        n_tiles = len(greedy)
        even = [
            (n_queries * t // n_tiles, n_queries * (t + 1) // n_tiles)
            for t in range(n_tiles)
        ]
        # No even tile is wider than the widest greedy one, so the cell
        # budget holds; pairs are not uniform over queries, so the pair
        # budget may not — then only the greedy cut fits it.
        if kernel == "sparse" and any(
            stop - start > 1
            and pairs_per_query[start:stop].sum() > self.tile_postings
            for start, stop in even
        ):
            return greedy
        return even

    # -- kernels ---------------------------------------------------------

    def _choose_kernel(self, n_queries: int, total_pairs: int) -> str:
        """Cheapest kernel under the unit-cost model (ties keep the
        earlier entry, so the historical sparse-vs-dense tie-break is
        unchanged)."""
        if self.kernel != "auto":
            return self.kernel
        n_series = len(self.searcher.sets)
        distinct = self.searcher.vocabulary()
        n_words = (distinct.size + 63) // 64
        costs: dict[str, int] = {
            "sparse": total_pairs * _SPARSE_PAIR_COST,
        }
        if n_series * n_words <= self.dense_limit:
            costs["bitset"] = (
                n_queries * n_series * max(n_words, 1) * _BITSET_WORD_COST
            )
        # The GEMM runs once per (even, cell-bounded) tile, so it is
        # priced per tile and not offered a one-row tile at all: a GEMV
        # streams the whole one-hot matrix for one row, and a threaded
        # BLAS stretches back-to-back ones to scheduler ticks (8 ms
        # where the sweep takes 0.9).  The packed store is 64x smaller
        # under the same ``dense_limit``, so whenever dense is a
        # candidate the bitset sweep is one too.
        n_tiles = -(-n_queries // max(1, self.tile_cells // n_series))
        if n_queries // n_tiles > 1 and distinct.size * n_series <= self.dense_limit:
            costs["dense"] = (
                max(n_queries, n_tiles * _DENSE_ROW_FLOOR) * distinct.size * n_series
            )
        best = "sparse"
        for name, cost in costs.items():
            if cost < costs[best]:
                best = name
        return best

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

    def _counts_sparse(
        self,
        counts: np.ndarray,
        q_lens: np.ndarray,
        left: np.ndarray,
        run_lens: np.ndarray,
        total_pairs: int,
    ) -> None:
        """CSR gather + flat bincount intersection counting (one tile).

        All ``total_pairs``-sized scratch comes from the workspace, and
        the gather/key arrays are built with boundary-difference +
        cumsum passes (a ``np.repeat`` equivalent that writes into a
        reused buffer instead of allocating).
        """
        n_queries, n_series = counts.shape
        if total_pairs == 0:
            counts.fill(0.0)
            return
        nz = run_lens > 0
        lens = run_lens[nz]
        starts = left[nz]
        qid_per_cell = np.repeat(np.arange(n_queries, dtype=np.int64), q_lens)
        key_base = (qid_per_cell * n_series)[nz]
        bpos = np.cumsum(lens) - lens  # first flat position of each run

        # flat[i] = starts[r] + (i - bpos[r]) for i inside run r, via
        # per-element deltas (+1 inside a run, jump at boundaries).
        flat = self.workspace.buffer("flat", total_pairs, np.int64)
        flat.fill(1)
        flat[0] = starts[0]
        if lens.size > 1:
            flat[bpos[1:]] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
        np.cumsum(flat, out=flat)

        owners = self.workspace.buffer("owners", total_pairs, np.int64)
        np.take(self.searcher._owners, flat, out=owners)

        # keys[i] = key_base[r] + owner, with key_base expanded by the
        # same boundary-delta trick (reusing the flat buffer).
        keys = flat
        keys.fill(0)
        keys[0] = key_base[0]
        if lens.size > 1:
            keys[bpos[1:]] = key_base[1:] - key_base[:-1]
        np.cumsum(keys, out=keys)
        np.add(keys, owners, out=keys)

        np.copyto(counts, np.bincount(keys, minlength=counts.size).reshape(counts.shape))

    def _counts_dense(
        self, counts: np.ndarray, q_lens: np.ndarray, q_cells: np.ndarray
    ) -> None:
        """One-hot GEMM intersection counting (one tile).

        Counts are sums of 0/1 products bounded by the query set size,
        far below float32's 2^24 exact-integer range, so the GEMM
        result equals the bincount result exactly.
        """
        n_queries, n_series = counts.shape
        distinct = self.searcher.vocabulary()
        rank = np.searchsorted(distinct, q_cells)
        # Query cells absent from the index (e.g. Algorithm 6 out-of-
        # bound cells) match nothing; drop them from the one-hot rows.
        present = rank < distinct.size
        present &= distinct[np.where(present, rank, 0)] == q_cells
        rank = rank[present]
        if rank.size == 0:
            counts.fill(0.0)
            return
        onehot = self._onehot_matrix()
        width = distinct.size

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
        self, counts: np.ndarray, query_sets: list[np.ndarray]
    ) -> None:
        """Packed popcount intersection counting (one tile).

        Each query packs into ``n_words`` uint64 words over the store
        vocabulary (out-of-vocabulary cells, e.g. Algorithm 6 IDs,
        intersect nothing and drop out), and one
        ``popcount(matrix & q)`` sweep yields the exact int64 counts
        for every series — bit-identical to the bincount and GEMM
        kernels once copied into the float64 counters.
        """
        store = self._bitset_store()
        n_queries = len(query_sets)
        n_series, n_words = store.matrix.shape
        with span(
            "kernel.bitset", rows=n_series * n_queries, words=n_words
        ):
            if n_words == 0:
                counts.fill(0.0)
                return
            packed = np.stack([store.pack(qs) for qs in query_sets])
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
        query_sets: list[np.ndarray],
        q_lens: np.ndarray,
        q_cells: np.ndarray,
        left: np.ndarray,
        run_lens: np.ndarray,
        total_pairs: int,
        k: int,
        kernel: str,
    ) -> list[QueryResult]:
        n_queries = len(query_sets)
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
                self._counts_dense(counts, q_lens, q_cells)
            elif kernel == "bitset":
                self._counts_bitset(counts, query_sets)
            else:
                self._counts_sparse(counts, q_lens, left, run_lens, total_pairs)

        with span("refine"):
            union = self.workspace.buffer("union", size, np.float64).reshape(
                n_queries, n_series
            )
            np.subtract(self._lengths_f64[None, :], counts, out=union)
            np.add(union, q_lens.astype(np.float64)[:, None], out=union)
            sims = self.workspace.buffer("sims", size, np.float64).reshape(
                n_queries, n_series
            )
            # Scalar parity: sims = where(union > 0, counts / max(union, 1), 1).
            # union == 0 only when query AND series sets are both empty
            # (Jaccard of two empty sets is defined as 1), so the patch-up
            # passes are skipped entirely on indexes without empty sets.
            if self._has_empty_set:
                empty = self.workspace.buffer("empty", size, np.bool_).reshape(
                    n_queries, n_series
                )
                np.equal(union, 0.0, out=empty)
                np.maximum(union, 1.0, out=union)
                np.divide(counts, union, out=sims)
                sims[empty] = 1.0
            else:
                np.divide(counts, union, out=sims)
            touched = np.count_nonzero(counts, axis=1)

        with span("select_topk"):
            results: list[QueryResult] = []
            for row in range(n_queries):
                row_sims = sims[row]
                order = top_k_indices(row_sims, k)
                neighbors = [
                    Neighbor(similarity=float(row_sims[i]), index=int(i))
                    for i in order
                ]
                stats = SearchStats(
                    candidates=n_series,
                    exact_computations=int(touched[row]),
                    pruned=int(n_series - touched[row]),
                    final_candidates=len(neighbors),
                )
                results.append(QueryResult(neighbors=neighbors, stats=stats))
        return results


def batch_query(
    searcher,
    query_sets: list[np.ndarray],
    k: int = 1,
    workspace: QueryWorkspace | None = None,
    kernel: str = "auto",
) -> list[QueryResult]:
    """One-shot convenience wrapper around :class:`BatchQueryEngine`."""
    engine = BatchQueryEngine(searcher, workspace=workspace, kernel=kernel)
    return engine.query_batch(query_sets, k=k)
