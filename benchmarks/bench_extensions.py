"""Benches for the future-work extensions (paper conclusion).

1. **MinHash/LSH vs inverted list** — "scaling our approach on large
   datasets": recall and per-query latency of the LSH candidate
   generator against the exact inverted-list searcher.
2. **Subsequence search** — sparse-join candidate generation vs the
   brute-force sliding scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import Timer, render_table, scaled
from repro.core import (
    IndexedSearcher,
    MinHashSearcher,
    STS3Database,
    SubsequenceSearcher,
    jaccard,
)
from repro.data import ecg_stream
from repro.data.workloads import ecg_workload


class TestMinHashVsIndex:
    @pytest.fixture(scope="class")
    def setup(self, report):
        workload = ecg_workload(
            scaled(20_000, minimum=400), scaled(200, minimum=20), length=256, seed=11
        )
        db = STS3Database(workload.database, sigma=3, epsilon=0.5, normalize=False)
        query_sets = [db.transform_query(q) for q in workload.queries]
        exact = IndexedSearcher(db.sets)
        approx = MinHashSearcher(db.sets, num_perm=128, bands=32)

        with Timer() as t_exact:
            truth = [exact.query(q, k=1).best.index for q in query_sets]
        with Timer() as t_lsh:
            answers = [approx.query(q, k=1).best.index for q in query_sets]
        recall = float(np.mean([a == b for a, b in zip(truth, answers)]))
        candidate_share = float(
            np.mean(
                [approx.query(q, k=1).stats.final_candidates / len(db.sets)
                 for q in query_sets[:10]]
            )
        )
        report(
            "extension_minhash",
            render_table(
                ["searcher", "batch ms", "1-NN recall", "candidate share"],
                [
                    ["inverted list (exact)", t_exact.millis, 1.0, 1.0],
                    ["MinHash LSH (128 perms, 32 bands)", t_lsh.millis, recall, candidate_share],
                ],
                title=f"Extension: MinHash/LSH vs inverted list (N={len(db.sets)})",
            ),
        )
        assert recall >= 0.6  # near-duplicate heavy workload: LSH should hit
        return exact, approx, query_sets

    def test_bench_exact(self, benchmark, setup):
        exact, _, query_sets = setup
        benchmark(lambda: exact.query(query_sets[0], k=1))

    def test_bench_lsh(self, benchmark, setup):
        _, approx, query_sets = setup
        benchmark(lambda: approx.query(query_sets[0], k=1))


class TestSubsequence:
    @pytest.fixture(scope="class")
    def setup(self, report):
        stream = ecg_stream(scaled(400_000, minimum=20_000), seed=13)
        searcher = SubsequenceSearcher(stream, sigma=4, epsilon=0.3)
        query = stream[5_000:5_256].copy()

        with Timer() as t_fast:
            (match,) = searcher.search(query, k=1, refine=True)
        # brute force over a *sample* of offsets for a timing reference
        n = len(query)
        q_cols = np.arange(n) // searcher.sigma
        q_rows = searcher._rows_of(query)
        q_set = np.unique(q_cols * searcher._n_rows + q_rows)
        sample = range(0, len(stream) - n, 64)
        with Timer() as t_brute:
            brute = max(
                ((jaccard(searcher.window_set(o, n), q_set), o) for o in sample)
            )
        scale_factor = 64  # the brute scan only touched 1/64 of offsets
        report(
            "extension_subsequence",
            render_table(
                ["approach", "ms", "best offset", "similarity"],
                [
                    ["sparse-join + refine", t_fast.millis, match.offset, match.similarity],
                    [
                        f"brute force (x{scale_factor} extrapolated)",
                        t_brute.millis * scale_factor,
                        brute[1],
                        brute[0],
                    ],
                ],
                title=f"Extension: subsequence search over {len(stream)} points",
            ),
        )
        assert match.offset == 5_000
        assert match.similarity == 1.0
        return searcher, query

    def test_bench_search(self, benchmark, setup):
        searcher, query = setup
        benchmark.pedantic(
            lambda: searcher.search(query, k=1, refine=False), rounds=3, iterations=1
        )
