"""Parity tests for the vectorized batch query engine.

The contract under test: ``STS3Database.query_batch`` (and the
underlying :class:`BatchQueryEngine`) must return *exactly* what a
sequential loop of scalar ``query()`` calls returns — same neighbour
indices, bit-identical similarities, same stats — for every method,
every ``k``, every worker count, and both intersection kernels.
"""

import numpy as np
import pytest

from repro import STS3Database
from repro.core.batch import BatchQueryEngine, QueryWorkspace, batch_query
from repro.core.indexed import DictInvertedIndex, IndexedSearcher
from repro.data.workloads import ecg_workload
from repro.exceptions import ParameterError


def _assert_identical(scalar_results, batch_results):
    assert len(scalar_results) == len(batch_results)
    for a, b in zip(scalar_results, batch_results):
        assert [(n.index, n.similarity) for n in a.neighbors] == [
            (n.index, n.similarity) for n in b.neighbors
        ]
        assert a.stats == b.stats


def _random_sets(rng, count, hi=400, max_size=60, min_size=0):
    return [
        np.unique(
            rng.integers(0, hi, rng.integers(min_size, max_size + 1))
        ).astype(np.int64)
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    database = [np.cumsum(rng.normal(size=96)) for _ in range(120)]
    queries = [np.cumsum(rng.normal(size=96)) for _ in range(17)]
    # One out-of-bound query exercises Algorithm 6 cell IDs, which must
    # match nothing in the index on both kernels.
    queries.append(np.concatenate([queries[0][:48] * 25.0, queries[0][48:]]))
    # Duplicate queries must yield duplicate answers.
    queries.append(queries[3].copy())
    return database, queries


class TestDatabaseBatchParity:
    @pytest.mark.parametrize("method", ["naive", "index", "pruning", "approximate"])
    def test_matches_scalar_loop(self, workload, method):
        database, queries = workload
        db = STS3Database(database, sigma=4, epsilon=0.5)
        scalar = [db.query(q, k=3, method=method) for q in queries]
        batch = db.query_batch(queries, k=3, method=method)
        _assert_identical(scalar, batch)

    @pytest.mark.parametrize("k", [1, 2, 5, 10_000])
    def test_matches_scalar_loop_k_sweep(self, workload, k):
        database, queries = workload
        db = STS3Database(database, sigma=4, epsilon=0.5)
        scalar = [db.query(q, k=k, method="index") for q in queries]
        batch = db.query_batch(queries, k=k, method="index")
        _assert_identical(scalar, batch)

    # Every database answers in the caller's thread, so the only worker
    # setting left is none at all: a database built and queried with its
    # defaults (method None leaves ``"auto"`` to pick the variant).
    @pytest.mark.parametrize("method", [None])
    def test_matches_scalar_loop_any_workers(self, workload, method):
        database, queries = workload
        db = STS3Database(database, sigma=4, epsilon=0.5)
        kwargs = {} if method is None else {"method": method}
        scalar = [db.query(q, k=3, **kwargs) for q in queries]
        batch = db.query_batch(queries, k=3, **kwargs)
        _assert_identical(scalar, batch)

    def test_duplicate_queries_get_duplicate_answers(self, workload):
        database, queries = workload
        db = STS3Database(database, sigma=4, epsilon=0.5)
        batch = db.query_batch([queries[3], queries[3]], k=4, method="index")
        _assert_identical([batch[0]], [batch[1]])

    def test_with_buffered_series(self, workload):
        database, queries = workload
        db = STS3Database(database, sigma=4, epsilon=0.5, buffer_capacity=8)
        # longer than every database series -> outside the time bound,
        # so the insert is buffered rather than appended
        db.insert(np.cumsum(np.random.default_rng(0).normal(size=150)))
        assert len(db.buffer) == 1
        scalar = [db.query(q, k=3, method="index") for q in queries]
        batch = db.query_batch(queries, k=3, method="index")
        _assert_identical(scalar, batch)

    def test_empty_batch(self, workload):
        database, _ = workload
        db = STS3Database(database, sigma=4, epsilon=0.5)
        assert db.query_batch([], k=3, method="index") == []

    def test_rejects_unknown_method(self, workload):
        database, queries = workload
        db = STS3Database(database, sigma=4, epsilon=0.5)
        with pytest.raises(ParameterError):
            db.query_batch(queries, k=3, method="magic")


class TestEngineKernels:
    @pytest.mark.parametrize("kernel", ["sparse", "dense", "bitset", "auto"])
    def test_randomized_parity_both_kernels(self, kernel):
        rng = np.random.default_rng(11)
        workspace = QueryWorkspace()
        for _ in range(4):
            searcher = IndexedSearcher(_random_sets(rng, int(rng.integers(1, 250))))
            # hi=500 > database hi=400: some query cells miss the index.
            queries = _random_sets(rng, int(rng.integers(0, 30)), hi=500)
            for k in (1, 4, 10_000):
                scalar = [searcher.query(q, k=k) for q in queries]
                engine = BatchQueryEngine(
                    searcher,
                    workspace=workspace,
                    kernel=kernel,
                    tile_cells=max(3 * len(searcher.sets), 1),
                    tile_postings=64,
                )
                _assert_identical(scalar, engine.query_batch(queries, k=k))

    @pytest.mark.parametrize("kernel", ["sparse", "dense"])
    def test_empty_sets_and_empty_queries(self, kernel):
        # Jaccard of two empty sets is 1.0 on the scalar path; the
        # batch kernels must reproduce that, not 0/0.
        sets = [
            np.empty(0, dtype=np.int64),
            np.array([3, 4], dtype=np.int64),
            np.array([9], dtype=np.int64),
        ]
        searcher = IndexedSearcher(sets)
        queries = [np.empty(0, dtype=np.int64), np.array([4, 9], dtype=np.int64)]
        scalar = [searcher.query(q, k=3) for q in queries]
        batch = batch_query(searcher, queries, k=3, kernel=kernel)
        _assert_identical(scalar, batch)

    def test_workspace_reuse_across_batch_shapes(self):
        rng = np.random.default_rng(3)
        searcher = IndexedSearcher(_random_sets(rng, 80))
        engine = BatchQueryEngine(searcher)
        for count in (31, 2, 17, 0, 31):
            queries = _random_sets(rng, count, hi=450)
            scalar = [searcher.query(q, k=5) for q in queries]
            _assert_identical(scalar, engine.query_batch(queries, k=5))
        assert engine.workspace.nbytes > 0

    def test_tiling_covers_all_queries_in_order(self):
        rng = np.random.default_rng(5)
        searcher = IndexedSearcher(_random_sets(rng, 50))
        queries = _random_sets(rng, 40)
        engine = BatchQueryEngine(
            searcher, tile_cells=len(searcher.sets), tile_postings=1
        )
        scalar = [searcher.query(q, k=2) for q in queries]
        _assert_identical(scalar, engine.query_batch(queries, k=2))
        # one query per tile under these budgets
        assert len(engine.last_kernels) == len(queries)

        # One query more than a tile holds: two even tiles, not a full
        # tile and a one-row remainder (which a GEMM would run as a GEMV).
        n_series = len(searcher.sets)
        queries = _random_sets(rng, 201)
        scalar = [searcher.query(q, k=2) for q in queries]
        for kernel in ("dense", "bitset", "sparse"):
            engine = BatchQueryEngine(
                searcher, kernel=kernel, tile_cells=200 * n_series
            )
            tiles = engine._tiles(np.zeros(201, dtype=np.int64), n_series, kernel)
            widths = [stop - start for start, stop in tiles]
            assert len(tiles) == 2 and max(widths) <= 200
            assert min(widths) >= max(widths) / 2
            _assert_identical(scalar, engine.query_batch(queries, k=2))
            assert len(engine.last_kernels) == 2
        # The sparse kernel's pair budget still binds: uneven pair
        # counts that no even cut fits keep the greedy one.
        engine = BatchQueryEngine(searcher, kernel="sparse", tile_postings=10)
        pairs = np.array([1, 1, 1, 1, 1, 1, 9, 9], dtype=np.int64)
        for start, stop in engine._tiles(pairs, n_series, "sparse"):
            assert stop - start == 1 or pairs[start:stop].sum() <= 10

    def test_thin_batches_never_run_dense(self):
        # ECG dense-overlap shape: every series shares cells with every
        # query, so the one-hot GEMM is feasible and wins wide batches.
        # Below the row floor it is bound by streaming the one-hot
        # matrix (and a one-row product stalls a threaded BLAS), so
        # auto must hand thin batches to another kernel.
        workload = ecg_workload(600, 32, 128, seed=5)
        db = STS3Database(workload.database, sigma=3, epsilon=0.58)
        searcher = db.indexed_searcher()
        query_sets = [db.transform_query(q) for q in workload.queries]
        engine = BatchQueryEngine(searcher, kernel="auto")
        for width in (1, 2, 3):
            batch = query_sets[:width]
            results = engine.query_batch(batch, k=5)
            assert "dense" not in engine.last_kernels
            _assert_identical([searcher.query(q, k=5) for q in batch], results)
        engine.query_batch(query_sets, k=5)
        assert engine.last_kernels == ["dense"]

    def test_kernel_autoselection_records_choice(self):
        rng = np.random.default_rng(9)
        searcher = IndexedSearcher(_random_sets(rng, 100))
        engine = BatchQueryEngine(searcher)
        engine.query_batch(_random_sets(rng, 5), k=1)
        assert engine.last_kernels
        assert set(engine.last_kernels) <= {"sparse", "dense", "bitset"}

    def test_rejects_bad_parameters(self):
        searcher = IndexedSearcher([np.array([1], dtype=np.int64)])
        with pytest.raises(ParameterError):
            BatchQueryEngine(searcher, kernel="blas")
        with pytest.raises(ParameterError):
            BatchQueryEngine(searcher, tile_cells=0)
        with pytest.raises(ParameterError):
            BatchQueryEngine(searcher, tile_postings=-1)
        with pytest.raises(ParameterError):
            BatchQueryEngine(searcher).query_batch([], k=0)


class TestIndexVariantParity:
    def test_dict_index_matches_sorted_postings(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            sets = _random_sets(rng, int(rng.integers(1, 150)))
            dict_index = DictInvertedIndex(sets)
            sorted_index = IndexedSearcher(sets)
            for query in _random_sets(rng, 8, hi=500):
                for k in (1, 3, 10_000):
                    _assert_identical(
                        [sorted_index.query(query, k=k)],
                        [dict_index.query(query, k=k)],
                    )
