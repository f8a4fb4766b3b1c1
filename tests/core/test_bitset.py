"""Packed-bitset store: popcount kernels vs the sorted-merge truth.

The contract under test is *bit-identity*: every popcount path — the
full sweep, gathered rows, per-zone masked counts, and the batch
engine's ``kernel="bitset"`` — must produce the same integers as
``np.intersect1d`` and hence the same float64 Jaccard values and the
same deterministic tie-breaks as every scalar path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitsetStore, NaiveSearcher, PruningSearcher
from repro.core.batch import BatchQueryEngine
from repro.core.bitset import HAVE_BITWISE_COUNT, popcount_u64, popcount_u64_lut
from repro.core.grid import Bound, Grid
from repro.core.indexed import IndexedSearcher
from repro.core.pruning import zone_histogram
from repro.core.setrep import transform, transform_query
from repro.exceptions import ParameterError

#: a sorted unique cell set over a deliberately small ID space (forces
#: overlap) with occasional huge IDs (Algorithm 6's out-of-bound space).
cell_set = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=10**6, max_value=10**6 + 40),
    ),
    min_size=0,
    max_size=60,
).map(lambda ids: np.unique(np.asarray(ids, dtype=np.int64)))

database = st.lists(cell_set, min_size=1, max_size=12)


def merge_counts(sets, query):
    return np.asarray(
        [np.intersect1d(s, query, assume_unique=True).size for s in sets],
        dtype=np.int64,
    )


class TestPopcount:
    def test_lut_matches_ufunc_on_word_extremes(self):
        words = np.array(
            [0, 1, 2, 0xFF, 2**63, 2**64 - 1, 0x5555555555555555],
            dtype=np.uint64,
        )
        expected = np.array([0, 1, 1, 8, 1, 64, 32], dtype=np.int64)
        assert np.array_equal(popcount_u64_lut(words), expected)
        assert np.array_equal(popcount_u64(words), expected)

    def test_lut_preserves_shape(self):
        words = np.arange(12, dtype=np.uint64).reshape(3, 4)
        out = popcount_u64_lut(words)
        assert out.shape == (3, 4)
        assert out.dtype == np.int64

    @pytest.mark.skipif(not HAVE_BITWISE_COUNT, reason="needs numpy >= 2.0")
    def test_lut_matches_bitwise_count_randomized(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**63, size=500, dtype=np.uint64) * np.uint64(2) + (
            rng.integers(0, 2, size=500).astype(np.uint64)
        )
        assert np.array_equal(
            popcount_u64_lut(words), np.bitwise_count(words).astype(np.int64)
        )

    def test_use_lut_false_requires_ufunc(self):
        if HAVE_BITWISE_COUNT:
            BitsetStore([np.array([1], dtype=np.int64)], use_lut=False)
        else:
            with pytest.raises(ParameterError):
                BitsetStore([np.array([1], dtype=np.int64)], use_lut=False)


class TestStoreEquivalence:
    @given(sets=database, query=cell_set)
    @settings(max_examples=120)
    def test_counts_match_intersect1d(self, sets, query):
        store = BitsetStore(sets)
        assert np.array_equal(store.intersection_counts(query), merge_counts(sets, query))

    @given(sets=database, query=cell_set)
    @settings(max_examples=60)
    def test_lut_path_matches_ufunc_path(self, sets, query):
        lut = BitsetStore(sets, use_lut=True)
        assert np.array_equal(lut.intersection_counts(query), merge_counts(sets, query))

    @given(sets=database, query=cell_set)
    @settings(max_examples=60)
    def test_row_gather_matches_full_sweep(self, sets, query):
        store = BitsetStore(sets)
        q_words = store.pack(query)
        rows = np.arange(len(sets) - 1, -1, -1, dtype=np.int64)  # reversed
        gathered = store.intersection_counts_rows(rows, q_words)
        assert np.array_equal(gathered, merge_counts(sets, query)[rows])

    def test_single_cell_vocabulary(self):
        sets = [np.array([7], dtype=np.int64), np.empty(0, dtype=np.int64)]
        store = BitsetStore(sets)
        assert store.vocab.tolist() == [7]
        assert store.matrix.shape == (2, 1)
        assert store.intersection_counts(np.array([7], dtype=np.int64)).tolist() == [1, 0]
        assert store.intersection_counts(np.array([8], dtype=np.int64)).tolist() == [0, 0]

    def test_all_empty_sets(self):
        sets = [np.empty(0, dtype=np.int64)] * 3
        store = BitsetStore(sets)
        assert store.matrix.shape == (3, 0)
        counts = store.intersection_counts(np.array([1, 2], dtype=np.int64))
        assert counts.tolist() == [0, 0, 0]
        assert store.verify_against(sets) == []

    def test_out_of_bound_query_ids_from_transform_query(self):
        rng = np.random.default_rng(11)
        series = [rng.normal(size=48) for _ in range(20)]
        bound = Bound.of_database(series)
        grid = Grid.from_cell_sizes(bound, 2, 0.4)
        sets = [transform(s, grid) for s in series]
        store = BitsetStore(sets)
        spiked = rng.normal(size=48)
        spiked[3] = 40.0  # escapes the bound: Algorithm 6 ID space
        query = transform_query(spiked, grid)
        assert query.max() >= grid.n_cells  # the premise: out-of-bound IDs
        assert np.array_equal(store.intersection_counts(query), merge_counts(sets, query))

    @given(sets=database, query=cell_set)
    @settings(max_examples=60)
    def test_masked_counts_match_zone_histogram(self, sets, query):
        rng = np.random.default_rng(0)
        store = BitsetStore(sets)
        n_groups = 5
        groups = rng.integers(0, n_groups, size=store.vocab.size)
        masks = store.column_masks(groups, n_groups)
        hist = store.masked_counts(store.pack(query), masks)
        in_vocab = query[np.isin(query, store.vocab, assume_unique=True)]
        ranks = np.searchsorted(store.vocab, in_vocab)
        expected = np.bincount(groups[ranks], minlength=n_groups)
        assert np.array_equal(hist, expected)

    @given(sets=database)
    @settings(max_examples=60)
    def test_vocabulary_handed_down_from_the_index(self, sets):
        # The index reads the vocabulary off its sorted postings; a
        # store built from it equals one that sorts for itself.
        vocab = IndexedSearcher(sets).vocabulary()
        own = BitsetStore(sets)
        handed = BitsetStore(sets, vocab=vocab)
        assert np.array_equal(vocab, own.vocab)
        assert np.array_equal(handed.matrix, own.matrix)

    def test_nbytes_counts_matrix_and_vocab(self):
        sets = [np.arange(100, dtype=np.int64)]
        store = BitsetStore(sets)
        assert store.nbytes == store.matrix.nbytes + store.vocab.nbytes + store.lengths.nbytes


def _ecg_sets(n=40, length=64, seed=5):
    rng = np.random.default_rng(seed)
    series = [rng.normal(size=length).cumsum() for _ in range(n)]
    bound = Bound.of_database(series)
    grid = Grid.from_cell_sizes(bound, 2, 0.6)
    return series, grid, [transform(s, grid) for s in series]


class TestSearcherParity:
    """Bitset-assisted searchers answer bit-for-bit like scalar ones."""

    def test_naive_with_bitset_matches_scalar(self):
        _, grid, sets = _ecg_sets()
        plain = NaiveSearcher(sets)
        packed = NaiveSearcher(sets, bitset=BitsetStore(sets))
        for qi in (0, 7, 23):
            for k in (1, 3, 11):
                a = plain.query(sets[qi], k=k)
                b = packed.query(sets[qi], k=k)
                assert [(n.index, n.similarity) for n in a.neighbors] == [
                    (n.index, n.similarity) for n in b.neighbors
                ]

    def test_pruning_with_bitset_matches_scalar(self):
        _, grid, sets = _ecg_sets()
        plain = PruningSearcher(sets, grid, scale=5)
        packed = PruningSearcher(sets, grid, scale=5, bitset=BitsetStore(sets))
        for qi in (0, 11, 31):
            for k in (1, 4):
                a = plain.query(sets[qi], k=k)
                b = packed.query(sets[qi], k=k)
                assert [(n.index, n.similarity) for n in a.neighbors] == [
                    (n.index, n.similarity) for n in b.neighbors
                ]
                # The bounds (and hence the pruning account) are unchanged.
                assert a.stats.pruned == b.stats.pruned
                assert a.stats.exact_computations == b.stats.exact_computations

    def test_pruning_zone_histogram_identical_with_bitset(self):
        rng = np.random.default_rng(2)
        _, grid, sets = _ecg_sets()
        searcher = PruningSearcher(sets, grid, scale=6, bitset=BitsetStore(sets))
        spiked = rng.normal(size=64).cumsum()
        spiked[5] = 90.0  # out-of-bound: exercises the bincount remainder
        query = transform_query(spiked, grid)
        assert np.array_equal(
            searcher._query_zone_histogram(query),
            zone_histogram(query, grid, 6),
        )


class TestBatchKernelParity:
    """Forced kernel="bitset" matches "dense" and the scalar
    ``IndexedSearcher`` loop bit-for-bit."""

    def _results(self, sets, queries, kernel, k=4):
        engine = BatchQueryEngine(IndexedSearcher(sets), kernel=kernel)
        return engine.query_batch(queries, k=k)

    def test_three_kernels_bit_identical(self):
        _, grid, sets = _ecg_sets(n=50)
        rng = np.random.default_rng(9)
        queries = [sets[i] for i in (0, 9, 33)] + [
            np.unique(rng.integers(0, grid.n_cells, size=30)).astype(np.int64),
            np.empty(0, dtype=np.int64),
        ]
        by_kernel = {
            kernel: self._results(sets, queries, kernel)
            for kernel in ("dense", "bitset")
        }
        searcher = IndexedSearcher(sets)
        reference = [searcher.query(q, k=4) for q in queries]
        for kernel in ("dense", "bitset"):
            for ref, got in zip(reference, by_kernel[kernel]):
                assert [(n.index, n.similarity) for n in ref.neighbors] == [
                    (n.index, n.similarity) for n in got.neighbors
                ]

    def test_forced_bitset_records_choice(self):
        _, _, sets = _ecg_sets(n=30)
        engine = BatchQueryEngine(IndexedSearcher(sets), kernel="bitset")
        engine.query_batch([sets[0], sets[1]], k=2)
        assert set(engine.last_kernels) == {"bitset"}

    def test_injected_store_is_used(self):
        _, _, sets = _ecg_sets(n=20)
        store = BitsetStore(sets)
        engine = BatchQueryEngine(
            IndexedSearcher(sets), kernel="bitset", bitset_store=store
        )
        engine.query_batch([sets[3]], k=1)
        assert engine._bitset_store() is store

    def test_supplier_declining_builds_own_store(self):
        _, _, sets = _ecg_sets(n=10)
        engine = BatchQueryEngine(
            IndexedSearcher(sets), kernel="bitset", bitset_store=lambda: None
        )
        results = engine.query_batch([sets[0]], k=1)
        assert results[0].neighbors[0].index == 0
        assert isinstance(engine._bitset_store(), BitsetStore)

    def test_auto_prefers_bitset_when_gemm_is_gated(self):
        # A tiny vocabulary shared by every series makes the gathered
        # pair count explode.  With the GEMM workspace priced out by
        # ``dense_limit`` the packed matrix (64x smaller, one word wide
        # here) is the only dense-style option left, and the cost model
        # must pick it over the postings counter.
        rng = np.random.default_rng(4)
        sets = [
            np.unique(rng.integers(0, 50, size=40)).astype(np.int64)
            for _ in range(300)
        ]
        engine = BatchQueryEngine(
            IndexedSearcher(sets), kernel="auto", dense_limit=10_000
        )
        engine.query_batch(sets[:32], k=3)
        assert set(engine.last_kernels) == {"bitset"}

    def test_auto_prefers_gemm_when_feasible(self):
        # Same dense-overlap shape, default gates: the float32 GEMM is
        # cheaper than the popcount sweep whenever its workspace fits
        # (one word covers 64 columns but costs more than 64 flops).
        rng = np.random.default_rng(4)
        sets = [
            np.unique(rng.integers(0, 50, size=40)).astype(np.int64)
            for _ in range(300)
        ]
        engine = BatchQueryEngine(IndexedSearcher(sets), kernel="auto")
        engine.query_batch(sets[:32], k=3)
        assert set(engine.last_kernels) == {"dense"}


class TestPlannerKernelRecording:
    def test_query_batch_records_kernel_on_plan(self, small_db, small_workload):
        small_db.query_batch(list(small_workload.queries[:4]), k=2, method="index")
        plans = small_db.planner.last_plans
        assert plans
        assert plans[0].kernel in {"postings", "dense", "bitset"}

    def test_scalar_query_records_scalar_kernel(self, small_db, small_workload):
        small_db.query(small_workload.queries[0], k=1, method="pruning")
        assert [p.kernel for p in small_db.planner.last_plans] == ["scalar"]
