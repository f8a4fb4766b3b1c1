"""Approximate STS3 (Algorithm 5): coarse-to-fine candidate filtering.

Set representations of every database series are precomputed at coarse
grids ``2×2, 3×3, …, maxScale×maxScale`` (offline).  A query walks the
scales from coarsest to finest, at each scale keeping only the
candidates whose coarse Jaccard similarity is maximal (for k-NN: whose
similarity ties the k-th largest), and stops early once at most ``k``
candidates survive.  The survivors are finally ranked by their exact
full-resolution Jaccard similarity.

Implementation note: a coarse grid at scale ``s`` has only ``s²`` cells
(per value dimension), so a series' coarse set packs into
``ceil(s²/64)`` uint64 words — a :class:`~repro.core.bitset.BitsetStore`
row.  Every refinement round then runs as a popcount kernel: the coarse
``|S ∩ Q|`` of the query against all surviving candidates is
``popcount(matrix[candidates] & q)`` in one vectorized pass, replacing
both the paper's per-candidate Java loop and the earlier one-hot
incidence-matrix product (at 1/8th the memory of a uint8 matrix).
(For very high-dimensional series whose coarse grids exceed
``_DENSE_CELL_LIMIT`` cells, the code falls back to per-candidate
merges.)

The filtering is lossy — "the computation in the coarse scale may miss
the time series that are most similar" (Figure 3) — which is why the
benchmarks measure the error rate
``(approxDist − optimalDist) / optimalDist`` alongside the speed-up.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmptyDatabaseError, ParameterError
from ..obs import span
from .bitset import BitsetStore
from .cache import CandidateCache, fingerprint
from .grid import Bound, Grid
from .jaccard import jaccard
from .result import Neighbor, QueryResult, SearchStats
from .selection import top_k_indices
from .setrep import transform, transform_many

__all__ = ["ApproximateSearcher"]

#: coarse grids larger than this use sorted-array sets, not bitsets.
_DENSE_CELL_LIMIT = 65536

#: per-searcher budget for cached coarse-filter survivor sets.  A
#: searcher is built over an immutable segment, so entries never go
#: stale and the cache is on by default; survivor arrays are small
#: (int64 indices), so 1 MiB holds thousands of distinct queries.
_CANDIDATE_CACHE_BYTES = 1 << 20


class _CoarseLevel:
    """One scale's precomputed representation of the whole database.

    A ``maxScale × maxScale`` grid fits every series in
    ``ceil(maxScale²/64)`` uint64 words, so the level is a tiny
    :class:`BitsetStore` and each refinement round is one popcount
    kernel over the surviving candidates.
    """

    def __init__(self, grid: Grid, series: list[np.ndarray]):
        self.grid = grid
        sets = transform_many(series, grid)
        self.lengths = np.asarray([len(s) for s in sets], dtype=np.int64)
        self.dense = grid.n_cells <= _DENSE_CELL_LIMIT
        if self.dense:
            self.store: BitsetStore | None = BitsetStore(sets)
            self.sets: list[np.ndarray] | None = None
        else:  # exercised via the sparse-fallback tests
            self.store = None
            self.sets = sets

    @property
    def nbytes(self) -> int:
        """Resident bytes of this level's candidate representation."""
        if self.store is not None:
            return self.store.nbytes + self.lengths.nbytes
        return sum(s.nbytes for s in self.sets) + self.lengths.nbytes

    def similarities(self, candidates: np.ndarray, query_rep: np.ndarray) -> np.ndarray:
        """Coarse Jaccard of the query against each candidate index."""
        q_len = len(query_rep)
        if self.dense:
            inter = self.store.intersection_counts_rows(
                candidates, self.store.pack(query_rep)
            )
        else:
            inter = np.asarray(
                [
                    np.intersect1d(self.sets[i], query_rep, assume_unique=True).size
                    for i in candidates
                ],
                dtype=np.int64,
            )
        union = self.lengths[candidates] + q_len - inter
        return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


class ApproximateSearcher:
    """Multi-scale approximate k-NN search.

    Needs the raw series (not just their fine-grid sets) because the
    coarse representations are recomputed from the points at each
    scale, exactly as the paper's offline step does (Algorithm 5,
    lines 1-5).
    """

    def __init__(
        self,
        series: list[np.ndarray],
        sets: list[np.ndarray],
        bound: Bound,
        max_scale: int = 4,
    ):
        if not sets:
            raise EmptyDatabaseError("cannot search an empty database")
        if len(series) != len(sets):
            raise ParameterError("series and sets must be parallel lists")
        if max_scale < 2:
            raise ParameterError(f"max_scale must be >= 2, got {max_scale}")
        self.sets = sets
        self.bound = bound
        self.max_scale = int(max_scale)
        #: ``Ddivision[scale]``: per-scale coarse grids + representations.
        self.levels: dict[int, _CoarseLevel] = {
            scale: _CoarseLevel(Grid.from_resolution(bound, scale), series)
            for scale in range(2, self.max_scale + 1)
        }
        #: survivor sets keyed on the query's exact coarse reps (see
        #: :meth:`filter_candidates`); segment immutability is the
        #: invalidation story, so this needs no generation component.
        self._candidates = CandidateCache(_CANDIDATE_CACHE_BYTES)

    def __len__(self) -> int:
        return len(self.sets)

    def filter_candidates(
        self, query_series: np.ndarray, k: int
    ) -> tuple[np.ndarray, int]:
        """Lines 6-22: shrink the search set scale by scale.

        Returns the surviving candidate indices and the number of
        filtering rounds executed.
        """
        # All coarse reps are computed up front so the cache key covers
        # *exactly* the inputs filtering depends on — two queries with
        # identical reps at every scale provably produce identical
        # survivors, so serving the cached set is bit-identical, not
        # heuristic.  (max_scale is small, so the extra transforms on an
        # early-exit miss are noise next to the similarity kernels.)
        reps = {
            scale: transform(query_series, self.levels[scale].grid)
            for scale in range(2, self.max_scale + 1)
        }
        key = (
            int(k),
            fingerprint(*(reps[s].tobytes() for s in sorted(reps))),
        )
        cached = self._candidates.get(key)
        if cached is not None:
            survivors, rounds = cached
            return survivors.copy(), rounds
        candidates = np.arange(len(self.sets), dtype=np.int64)
        rounds = 0
        for scale in range(2, self.max_scale + 1):
            rounds += 1
            level = self.levels[scale]
            query_rep = reps[scale]
            sims = level.similarities(candidates, query_rep)
            if len(candidates) > k:
                # Keep everything tying the k-th largest similarity, so
                # the 1-NN case keeps exactly the argmax ties (line 14).
                kth = np.partition(sims, len(sims) - k)[len(sims) - k]
                candidates = candidates[sims >= kth]
            if len(candidates) <= k:
                break
        self._candidates.put(
            key, (candidates.copy(), rounds), candidates.nbytes + 64
        )
        return candidates, rounds

    def query(
        self, query_series: np.ndarray, query_set: np.ndarray, k: int = 1
    ) -> QueryResult:
        """Approximate k-NN: coarse filtering then exact refinement.

        ``query_series`` drives the coarse-scale filtering;
        ``query_set`` is the full-resolution set representation used
        for the final ranking (lines 23-30).
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        k = min(k, len(self.sets))
        with span("filter"):
            survivors, rounds = self.filter_candidates(query_series, k)
        stats = SearchStats(
            candidates=len(self.sets),
            filter_rounds=rounds,
            final_candidates=len(survivors),
            pruned=len(self.sets) - len(survivors),
        )
        with span("refine", survivors=len(survivors)):
            sims = np.asarray(
                [jaccard(self.sets[index], query_set) for index in survivors.tolist()],
                dtype=np.float64,
            )
            stats.exact_computations += len(survivors)
        with span("select_topk"):
            # O(n) deterministic selection over the survivors; the
            # tie-break runs on database indices, not survivor
            # positions, so ties resolve exactly as a full scan would.
            chosen = top_k_indices(sims, k, tie_break=survivors)
            neighbors = [
                Neighbor(index=int(survivors[i]), similarity=float(sims[i]))
                for i in chosen.tolist()
            ]
        return QueryResult(neighbors=neighbors, stats=stats)
