"""Packed-bitset set representation with popcount Jaccard kernels.

STS3 reduces similarity search to set intersection, and a grid cell set
is exactly a small sparse bitmap over the segment's cell vocabulary.
:class:`BitsetStore` exploits that: it remaps the segment's distinct
cell IDs to dense bit columns and packs every series' set into one row
of an ``(n_series, ceil(vocab/64))`` uint64 matrix.  The exact
intersection size of a query against *all* candidates then collapses to
a single vectorized pass::

    |S_i ∩ Q|  =  popcount(matrix[i] & q)     for every i at once

with ``popcount`` either numpy >= 2.0's :func:`numpy.bitwise_count` or
a uint8 lookup-table fallback (one gather + row sum) on older numpy.
Counts are bit-identical to the sorted-merge ``intersect1d`` path —
same integers in, same float64 Jaccard out — so every searcher can swap
its per-candidate merge loop for one popcount sweep without perturbing
results or deterministic tie-breaks.

Query cells absent from the vocabulary (including Algorithm 6's
out-of-bound ID space) intersect nothing by construction and are
dropped during packing; ``|Q|`` always uses the *full* query set size,
so the Jaccard denominator is unchanged.

Memory math (DESIGN.md §11): sorted int64 arrays cost ``8 · Σ|S_i|``
bytes; the packed matrix costs ``8 · n · ceil(v/64)`` for vocabulary
size ``v``.  Packing wins whenever the average set size exceeds
``ceil(v/64)`` — i.e. on dense-overlap segments, which is exactly where
the per-candidate merge loop is slowest.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from ..obs import span

__all__ = [
    "BitsetStore",
    "HAVE_BITWISE_COUNT",
    "popcount_u64",
    "popcount_u64_lut",
]

#: numpy >= 2.0 ships a vectorized popcount ufunc.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: bytes of 0/1 column flags :class:`BitsetStore` packs per block of
#: rows: small blocks reuse warm heap pages instead of faulting fresh ones.
_PACK_BLOCK_BYTES = 1 << 17

#: per-byte popcount table for the numpy < 2.0 fallback.
_BYTE_POPCOUNT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def popcount_u64_lut(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array via a uint8 lookup table.

    The fallback for numpy < 2.0: view the (contiguous) words as bytes,
    gather per-byte counts, and fold the 8 bytes of every word back
    together.  Returns int64 counts with ``words.shape``.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    per_byte = _BYTE_POPCOUNT[words.view(np.uint8)]
    return per_byte.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.int64)


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (int64 result).

    Uses :func:`numpy.bitwise_count` when available (numpy >= 2.0) and
    the lookup-table fallback otherwise.
    """
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    return popcount_u64_lut(words)


class BitsetStore:
    """Packed bitmap of many cell-ID sets over a shared vocabulary.

    Parameters
    ----------
    sets:
        Sorted unique int64 cell-ID arrays (one per series), exactly as
        produced by :func:`repro.core.setrep.transform`.
    use_lut:
        Force the uint8 lookup-table popcount (``True``), force the
        numpy ufunc (``False``, raises if unavailable), or auto-detect
        (``None``, the default).  Tests use this to exercise the
        numpy < 2.0 path on any numpy.
    vocab:
        The sorted distinct cell IDs across ``sets``, when the caller
        already holds them (the segment's memory gate and the batch
        engine do, from :meth:`IndexedSearcher.vocabulary`); computed
        here when omitted.

    Attributes
    ----------
    vocab:
        Sorted distinct cell IDs across all sets (the dense column map).
    matrix:
        ``(n_series, n_words)`` uint64; bit ``j`` of word ``w`` in row
        ``i`` is set iff series ``i`` contains ``vocab[64·w + j]``.
    lengths:
        int64 set sizes (the ``|S_i|`` Jaccard terms).
    """

    def __init__(
        self,
        sets: list[np.ndarray],
        use_lut: bool | None = None,
        vocab: np.ndarray | None = None,
    ):
        if use_lut is None:
            use_lut = not HAVE_BITWISE_COUNT
        elif not use_lut and not HAVE_BITWISE_COUNT:
            raise ParameterError(
                "use_lut=False requires numpy.bitwise_count (numpy >= 2.0)"
            )
        self.use_lut = bool(use_lut)
        self.lengths = np.asarray([len(s) for s in sets], dtype=np.int64)
        if vocab is None:
            vocab = np.unique(
                np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
            )
        self.vocab = vocab
        self.n_words = (self.vocab.size + 63) // 64
        self.matrix = np.zeros((len(sets), self.n_words), dtype=np.uint64)
        if not self.lengths.sum():
            return
        # A cell's column comes from an ID -> column table where the
        # vocabulary spans no more IDs than there are cells, else from a
        # binary search (every stored cell is in the vocabulary, so no
        # membership check); rows are packed a block at a time.
        low, high = int(vocab[0]), int(vocab[-1])
        table = None
        if high - low < self.lengths.sum():
            table = np.empty(high - low + 1, dtype=np.int64)
            table[vocab - low] = np.arange(vocab.size)
        block = max(1, _PACK_BLOCK_BYTES // (64 * self.n_words))
        for start in range(0, len(sets), block):
            cells = np.concatenate(sets[start : start + block])
            lengths = self.lengths[start : start + block]
            rows = np.repeat(np.arange(lengths.size), lengths)
            columns = (
                np.searchsorted(vocab, cells) if table is None else table[cells - low]
            )
            self.matrix[start : start + block] = self.pack_columns(
                lengths.size, rows, columns
            )

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the packed representation (matrix + vocab)."""
        return self.matrix.nbytes + self.vocab.nbytes + self.lengths.nbytes

    # -- packing ---------------------------------------------------------

    def pack(self, cell_set: np.ndarray) -> np.ndarray:
        """Pack a (possibly foreign) cell set into one uint64 word row.

        Cells outside the vocabulary — unseen database cells or
        Algorithm 6 out-of-bound query IDs — cannot intersect any
        stored set and are dropped; the caller keeps using the full
        ``len(cell_set)`` for the union term.
        """
        cells = np.asarray(cell_set, dtype=np.int64)
        if cells.size == 0 or self.vocab.size == 0:
            return np.zeros(self.n_words, dtype=np.uint64)
        ranks = np.searchsorted(self.vocab, cells)
        present = ranks < self.vocab.size
        present &= self.vocab[np.where(present, ranks, 0)] == cells
        columns = ranks[present]
        return self.pack_columns(1, np.zeros_like(columns), columns)[0]

    def pack_columns(
        self, n_rows: int, rows: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """``(n_rows, n_words)`` words with vocabulary column
        ``columns[j]`` set in row ``rows[j]``: one 0/1 byte per column,
        folded by ``np.packbits`` in little-endian bit order, which puts
        column ``c`` at bit ``c % 64`` of word ``c // 64``."""
        flags = np.zeros((n_rows, 64 * self.n_words), dtype=np.bool_)
        flags[rows, columns] = True
        packed = np.packbits(flags, axis=1, bitorder="little")
        return packed.view("<u8").astype(np.uint64, copy=False)

    # -- popcount kernels ------------------------------------------------

    def _popcount(self, words: np.ndarray) -> np.ndarray:
        """Per-word popcounts (uint8 from the ufunc, int64 from the
        table); callers sum them in int64."""
        if self.use_lut:
            return popcount_u64_lut(words)
        return np.bitwise_count(words)

    def _sweep(self, rows: np.ndarray, q_words: np.ndarray) -> np.ndarray:
        """``popcount(rows & q)`` summed per row — the shared inner kernel."""
        if rows.shape[1] == 0:
            return np.zeros(rows.shape[0], dtype=np.int64)
        return self._popcount(rows & q_words[None, :]).sum(
            axis=1, dtype=np.int64
        )

    def intersection_counts(self, query_set: np.ndarray) -> np.ndarray:
        """``|S_i ∩ Q|`` for every stored series, in one popcount pass."""
        q_words = self.pack(query_set)
        with span("kernel.bitset", rows=len(self), words=self.n_words):
            return self._sweep(self.matrix, q_words)

    def intersection_counts_rows(
        self, rows: np.ndarray, q_words: np.ndarray
    ) -> np.ndarray:
        """``|S_i ∩ Q|`` for the selected row indices only.

        ``q_words`` must come from :meth:`pack`; used by the pruning
        searcher to evaluate one best-first chunk per popcount pass.
        """
        with span("kernel.bitset", rows=len(rows), words=self.n_words):
            return self._sweep(self.matrix[rows], q_words)

    def masked_counts(self, q_words: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """``popcount(q & mask_z)`` for every mask row ``z``.

        With one mask per pruning zone this computes the query's zone
        histogram (restricted to the vocabulary) as ``n_zones`` masked
        popcounts instead of a decode + bincount pass.
        """
        with span("kernel.bitset", rows=len(masks), words=self.n_words):
            return self._sweep(masks, q_words)

    def column_masks(self, groups: np.ndarray, n_groups: int) -> np.ndarray:
        """``(n_groups, n_words)`` masks selecting each group's columns.

        ``groups`` assigns every vocabulary column to a group (e.g. its
        pruning zone); the returned masks feed :meth:`masked_counts`.
        """
        masks = np.zeros((int(n_groups), self.n_words), dtype=np.uint64)
        if self.vocab.size:
            columns = np.arange(self.vocab.size, dtype=np.int64)
            flat = np.asarray(groups, dtype=np.int64) * self.n_words + (
                columns >> 6
            )
            bits = np.uint64(1) << (columns & 63).astype(np.uint64)
            np.bitwise_or.at(masks.reshape(-1), flat, bits)
        return masks

    def verify_against(self, sets: list[np.ndarray]) -> list[str]:
        """Self-check: unpacking every row recovers the source sets."""
        problems: list[str] = []
        if len(sets) != len(self):
            problems.append(
                f"store packs {len(self)} series but got {len(sets)} sets"
            )
            return problems
        for i, cell_set in enumerate(sets):
            counts = self._sweep(self.matrix[i : i + 1], self.pack(cell_set))
            if int(counts[0]) != len(cell_set) or int(
                self.lengths[i]
            ) != len(cell_set):
                problems.append(f"row {i} does not round-trip its cell set")
        return problems
