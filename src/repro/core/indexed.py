"""Index-based STS3 (Algorithm 3): inverted list + counter array.

An inverted list maps each cell ID to the series that contain it.  At
query time the lists of the query's cells are concatenated and a
counter array (``intersection`` in the paper) tallies how often each
series appears — which equals ``|S ∩ Q|`` — so the Jaccard similarity
of every intersecting series falls out of one ``bincount``.  Series
sharing no cell with the query are never touched, which is the point:
"most time series in D have little intersection with Q".

Implementation: rather than a dict of Python lists, the postings are
stored as two parallel sorted arrays (``cells``, ``owners``); the
postings of one cell are located by binary search.  An ablation bench
compares this dense layout against a dict-of-arrays variant (also
provided here as :class:`DictInvertedIndex`).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmptyDatabaseError, ParameterError
from ..obs import span
from .result import Neighbor, QueryResult, SearchStats
from .selection import top_k_indices

__all__ = ["IndexedSearcher", "DictInvertedIndex"]


class IndexedSearcher:
    """Inverted-list k-NN search over a list of cell-ID sets."""

    def __init__(self, sets: list[np.ndarray]):
        if not sets:
            raise EmptyDatabaseError("cannot search an empty database")
        self.sets = sets
        self.lengths = np.asarray([len(s) for s in sets], dtype=np.int64)
        owners = np.repeat(
            np.arange(len(sets), dtype=np.int64), self.lengths
        )
        cells = np.concatenate(sets)
        # Postings sorted by cell ID, owners aligned.  Grid cell IDs are
        # small non-negative integers, so each posting packs into one
        # unique int64 key, cell high and owner low: a plain (SIMD) sort
        # of the keys, in place, gives exactly the order a stable
        # argsort by cell does, 3-5x faster.  IDs too wide to pack fall
        # back to that argsort.
        bits = int(owners[-1]).bit_length() if owners.size else 0
        if cells.size and cells.min() >= 0 and int(cells.max()) < 1 << (63 - bits):
            keys = cells.astype(np.int64, copy=False)
            keys <<= bits
            keys |= owners
            keys.sort()
            self._cells = (keys >> bits).astype(cells.dtype, copy=False)
            keys &= (1 << bits) - 1
            self._owners = keys
        else:
            order = np.argsort(cells, kind="stable")
            self._cells, self._owners = cells[order], owners[order]
        self._vocabulary: np.ndarray | None = None
        self._run_starts: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sets)

    def vocabulary(self) -> np.ndarray:
        """Sorted distinct cell IDs across all sets, computed once.

        The postings are sorted by cell, so the distinct cells are
        where they step (and where their runs start,
        :meth:`postings_starts`): one linear pass instead of the sort an
        ``np.unique`` over the sets would pay.  Idempotent, so it takes
        no lock.
        """
        if self._vocabulary is None:
            first = np.ones(self._cells.size, dtype=np.bool_)
            np.not_equal(self._cells[1:], self._cells[:-1], out=first[1:])
            self._run_starts = np.append(np.flatnonzero(first), self._cells.size)
            self._vocabulary = self._cells[first]
        return self._vocabulary

    def postings_starts(self) -> np.ndarray:
        """Where each vocabulary cell's postings run starts, then the
        postings' end: ``vocabulary()[i]``'s run is ``starts[i]:starts[i + 1]``."""
        self.vocabulary()
        return self._run_starts

    def intersection_counts(self, query_set: np.ndarray) -> np.ndarray:
        """``|S_i ∩ Q|`` for every database series ``i`` (lines 1-5).

        The counter-array refresh of Algorithm 3, vectorized: locate
        each query cell's postings run by binary search, then
        :meth:`count_runs`.  The batch engine locates runs through
        :meth:`postings_starts` instead.
        """
        left = np.searchsorted(self._cells, query_set, side="left")
        right = np.searchsorted(self._cells, query_set, side="right")
        return self.count_runs(left, right)

    def count_runs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``bincount`` of the owners of postings runs ``left[j]:right[j]``
        (an empty run — a cell absent from the index — adds nothing)."""
        hits = [
            self._owners[lo:hi]
            for lo, hi in zip(left.tolist(), right.tolist())
            if hi > lo
        ]
        if not hits:
            return np.zeros(len(self.sets), dtype=np.int64)
        return np.bincount(np.concatenate(hits), minlength=len(self.sets))

    def query(self, query_set: np.ndarray, k: int = 1) -> QueryResult:
        """Return the ``k`` most Jaccard-similar sets to ``query_set``."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        k = min(k, len(self.sets))
        with span("filter"):
            counts = self.intersection_counts(query_set)
        with span("refine"):
            q_len = len(query_set)
            union = self.lengths + q_len - counts
            sims = np.where(union > 0, counts / np.maximum(union, 1), 1.0)

        stats = SearchStats(
            candidates=len(self.sets),
            exact_computations=int(np.count_nonzero(counts)),
            pruned=int(len(self.sets) - np.count_nonzero(counts)),
        )
        # Top-k with deterministic ties: similarity desc, index asc —
        # O(n) selection instead of a full lexsort.
        with span("select_topk"):
            order = top_k_indices(sims, k)
            neighbors = [
                Neighbor(similarity=float(sims[i]), index=int(i)) for i in order
            ]
        stats.final_candidates = len(neighbors)
        return QueryResult(neighbors=neighbors, stats=stats)


class DictInvertedIndex:
    """Dict-of-arrays inverted list — the ablation counterpart.

    Functionally identical to :class:`IndexedSearcher`; kept to measure
    the cost of hash lookups versus binary search on the sorted
    postings (DESIGN.md §6).
    """

    def __init__(self, sets: list[np.ndarray]):
        if not sets:
            raise EmptyDatabaseError("cannot search an empty database")
        self.sets = sets
        self.lengths = np.asarray([len(s) for s in sets], dtype=np.int64)
        postings: dict[int, list[int]] = {}
        for owner, cell_set in enumerate(sets):
            for cell in cell_set.tolist():
                postings.setdefault(cell, []).append(owner)
        self._postings = {
            cell: np.asarray(ids, dtype=np.int64) for cell, ids in postings.items()
        }

    def intersection_counts(self, query_set: np.ndarray) -> np.ndarray:
        hits = [
            self._postings[cell]
            for cell in query_set.tolist()
            if cell in self._postings
        ]
        if not hits:
            return np.zeros(len(self.sets), dtype=np.int64)
        return np.bincount(np.concatenate(hits), minlength=len(self.sets))

    def query(self, query_set: np.ndarray, k: int = 1) -> QueryResult:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        k = min(k, len(self.sets))
        counts = self.intersection_counts(query_set)
        union = self.lengths + len(query_set) - counts
        sims = np.where(union > 0, counts / np.maximum(union, 1), 1.0)
        order = top_k_indices(sims, k)
        neighbors = [Neighbor(similarity=float(sims[i]), index=int(i)) for i in order]
        stats = SearchStats(
            candidates=len(self.sets),
            exact_computations=int(np.count_nonzero(counts)),
            pruned=int(len(self.sets) - np.count_nonzero(counts)),
            final_candidates=len(neighbors),
        )
        return QueryResult(neighbors=neighbors, stats=stats)
