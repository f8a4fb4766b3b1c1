"""The query path emits the documented spans and counters.

Pins the span vocabulary of docs/observability.md against the real
instrumentation: every searcher, the batch engine, buffered updates,
and persistence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import STS3Database
from repro.core.persistence import load_database, save_database
from repro.obs import MetricsRegistry, Tracer, get_registry, set_registry, use_tracer

METHODS = ["naive", "index", "pruning", "approximate"]


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(previous)


def traced(fn):
    with use_tracer(Tracer()) as tracer:
        result = fn()
    return result, tracer


class TestQuerySpans:
    @pytest.mark.parametrize("method", METHODS)
    def test_query_emits_stage_spans(self, small_db, small_workload, method):
        q = small_workload.queries[0]
        result, tracer = traced(lambda: small_db.query(q, k=3, method=method))
        assert len(result.neighbors) == 3
        counts = tracer.stage_counts()
        assert counts["query"] == 1
        assert counts["transform"] == 1
        assert counts["refine"] >= 1
        assert counts["select_topk"] == 1
        if method != "naive":  # the naive scan has no filter phase
            assert counts["filter"] >= 1

    @pytest.mark.parametrize("method", METHODS)
    def test_stage_spans_nest_under_query(self, small_db, small_workload, method):
        q = small_workload.queries[0]
        _, tracer = traced(lambda: small_db.query(q, k=3, method=method))
        forest = tracer.to_dicts()
        roots = [n["name"] for n in forest]
        assert roots.count("query") == 1
        query_node = next(n for n in forest if n["name"] == "query")
        assert query_node["attrs"]["method"] == method

        def names(node):
            out = {node["name"]}
            for child in node["children"]:
                out |= names(child)
            return out

        assert {"transform", "refine", "select_topk"} <= names(query_node)

    def test_query_counter_by_method(self, small_db, small_workload, fresh_registry):
        q = small_workload.queries[0]
        small_db.query(q, k=3, method="index")
        small_db.query(q, k=3, method="index")
        small_db.query(q, k=3, method="naive")
        counter = fresh_registry.counter("sts3_queries_total")
        assert counter.value(method="index") == 2.0
        assert counter.value(method="naive") == 1.0


class TestBatchSpans:
    def test_batch_emits_tiles_and_kernel_counter(self, small_db, small_workload,
                                                  fresh_registry):
        queries = small_workload.queries[:6]
        results, tracer = traced(
            lambda: small_db.query_batch(queries, k=3, method="index")
        )
        assert len(results) == 6
        counts = tracer.stage_counts()
        assert counts["query_batch"] == 1
        assert counts["tile"] >= 1
        assert counts["filter"] >= 2  # locate_postings + plan_tiles + per tile
        assert counts["refine"] >= 1
        assert counts["select_topk"] >= 1

        tiles = fresh_registry.counter("sts3_batch_tiles_total")
        kernel_total = sum(
            tiles.value(kernel=name) for name in ("postings", "dense", "bitset")
        )
        assert kernel_total == counts["tile"]
        selected = fresh_registry.counter("sts3_kernel_selected_total")
        assert sum(
            selected.value(kernel=name) for name in ("postings", "dense", "bitset")
        ) == 1.0
        batch_counter = fresh_registry.counter("sts3_batch_queries_total")
        assert batch_counter.value(method="index") == 6.0

    def test_plan_span_carries_kernel_prices(self, small_db, small_workload):
        _, tracer = traced(
            lambda: small_db.query_batch(small_workload.queries[:6], k=3,
                                         method="index")
        )
        plans = [
            s.attrs for s in tracer.finished()
            if s.name == "filter" and s.attrs.get("phase") == "plan_tiles"
        ]
        assert len(plans) == 1
        prices, kernel = plans[0]["prices"], plans[0]["kernel"]
        # postings is always priced; a matrix kernel only where it fits
        assert "postings" in prices and set(prices) <= {"postings", "bitset", "dense"}
        assert all(isinstance(p, int) and p >= 0 for p in prices.values())
        assert kernel == min(prices, key=prices.__getitem__)

    def test_tile_children_account_for_stage_time(self, small_db, small_workload):
        _, tracer = traced(
            lambda: small_db.query_batch(small_workload.queries[:6], k=3,
                                         method="index")
        )
        forest = tracer.to_dicts()

        def find(nodes, name):
            for node in nodes:
                if node["name"] == name:
                    return node
                found = find(node["children"], name)
                if found:
                    return found
            return None

        tile = find(forest, "tile")
        assert tile is not None
        child_names = {c["name"] for c in tile["children"]}
        assert {"filter", "refine", "select_topk"} <= child_names
        child_ns = sum(c["duration_ns"] for c in tile["children"])
        assert child_ns <= tile["duration_ns"]

    def test_non_index_batch_still_traces(self, small_db, small_workload):
        results, tracer = traced(
            lambda: small_db.query_batch(small_workload.queries[:3], k=3,
                                         method="pruning")
        )
        assert len(results) == 3
        counts = tracer.stage_counts()
        assert counts["query_batch"] == 1
        assert counts.get("tile") is None  # scalar fallback: no engine tiles
        assert counts["refine"] >= 3


class TestUpdateSpans:
    @pytest.fixture
    def tiny_db(self, rng):
        series = [rng.normal(size=32) for _ in range(20)]
        return STS3Database(series, sigma=3, epsilon=0.5)

    @pytest.fixture
    def out_of_bound_series(self, rng):
        return np.concatenate([rng.normal(size=31), [50.0]])

    def test_insert_counter_paths(self, tiny_db, rng, out_of_bound_series,
                                  fresh_registry):
        tiny_db.insert(np.array(tiny_db.series[0]))  # in-bound: direct
        tiny_db.insert(out_of_bound_series)          # out-of-bound: buffered
        inserts = fresh_registry.counter("sts3_inserts_total")
        assert inserts.value(path="direct") == 1.0
        assert inserts.value(path="buffered") == 1.0

    def test_buffered_query_emits_merge(self, tiny_db, rng, out_of_bound_series,
                                        fresh_registry):
        tiny_db.insert(out_of_bound_series)
        assert len(tiny_db.buffer) == 1
        _, tracer = traced(
            lambda: tiny_db.query(rng.normal(size=32), k=3, method="index")
        )
        assert tracer.stage_counts()["merge"] == 1
        merges = fresh_registry.counter("sts3_buffer_merges_total")
        assert merges.value() == 1.0

    def test_flush_emits_seal_span_and_counter(self, tiny_db,
                                               out_of_bound_series,
                                               fresh_registry):
        tiny_db.insert(out_of_bound_series)
        _, tracer = traced(tiny_db.flush)
        counts = tracer.stage_counts()
        assert counts["flush"] == 1
        assert counts["segment.seal"] == 1
        assert len(tiny_db.buffer) == 0
        sealed = fresh_registry.counter("sts3_segments_sealed_total")
        assert sealed.value() == 1.0
        # Sealing is not a rebuild: the rebuild counter moved to compact().
        assert fresh_registry.counter("sts3_rebuilds_total").value() == 0.0

    def test_compact_emits_span_and_rebuild_counter(self, tiny_db,
                                                    out_of_bound_series,
                                                    fresh_registry):
        tiny_db.insert(out_of_bound_series)
        tiny_db.flush()
        _, tracer = traced(tiny_db.compact)
        assert tracer.stage_counts()["segment.compact"] == 1
        assert len(tiny_db.catalog.segments) == 1
        rebuilds = fresh_registry.counter("sts3_rebuilds_total")
        assert rebuilds.value() == 1.0

    def test_multi_segment_query_emits_plan_and_merge(self, tiny_db, rng,
                                                      out_of_bound_series):
        tiny_db.insert(out_of_bound_series)
        tiny_db.flush()
        _, tracer = traced(
            lambda: tiny_db.query(rng.normal(size=32), k=3, method="index")
        )
        counts = tracer.stage_counts()
        assert counts["plan"] == 1
        assert counts["merge"] == 1
        assert counts["transform"] == 2  # one per segment


class TestPersistenceSpans:
    def test_save_load_round_trip_spans(self, small_db, small_workload, tmp_path,
                                        fresh_registry):
        path = tmp_path / "db.npz"

        _, tracer = traced(lambda: save_database(small_db, path))
        assert tracer.stage_counts()["persist.save"] == 1

        loaded, tracer = traced(lambda: load_database(path))
        assert tracer.stage_counts()["persist.load"] == 1

        persist = fresh_registry.counter("sts3_persist_total")
        assert persist.value(op="save") == 1.0
        assert persist.value(op="load") == 1.0

        q = small_workload.queries[0]
        original = small_db.query(q, k=3, method="index")
        restored = loaded.query(q, k=3, method="index")
        assert [n.index for n in original.neighbors] == [
            n.index for n in restored.neighbors
        ]


class TestDisabledCost:
    def test_untraced_query_records_no_spans(self, small_db, small_workload):
        tracer = Tracer()  # never installed
        small_db.query(small_workload.queries[0], k=3, method="index")
        assert tracer.finished() == []

    def test_tracing_does_not_change_results(self, small_db, small_workload):
        q = small_workload.queries[0]
        plain = small_db.query(q, k=5, method="index")
        traced_result, _ = traced(lambda: small_db.query(q, k=5, method="index"))
        assert [(n.index, n.similarity) for n in plain.neighbors] == [
            (n.index, n.similarity) for n in traced_result.neighbors
        ]
