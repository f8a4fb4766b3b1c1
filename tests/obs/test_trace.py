"""Tracer edge cases: nesting, exceptions, no-op mode, threads, forks."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NOOP,
    NoopTracer,
    Span,
    Tracer,
    get_tracer,
    span,
    use_tracer,
)
from repro.obs.trace import _NOOP_SPAN


class TestNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query") as parent:
                with span("filter") as child:
                    pass
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query") as parent:
                with span("filter") as a:
                    pass
                with span("refine") as b:
                    pass
        assert a.parent_id == b.parent_id == parent.span_id

    def test_to_dicts_builds_forest(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query"):
                with span("filter"):
                    pass
                with span("refine"):
                    pass
            with span("query"):
                pass
        forest = tracer.to_dicts()
        assert [node["name"] for node in forest] == ["query", "query"]
        assert [c["name"] for c in forest[0]["children"]] == ["filter", "refine"]
        assert forest[1]["children"] == []

    def test_durations_nest(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        assert outer.duration_ns >= inner.duration_ns >= 0

    def test_attrs_recorded_and_settable(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("tile", kernel="dense") as s:
                s.set(queries=32)
        assert s.attrs == {"kernel": "dense", "queries": 32}
        assert tracer.to_dicts()[0]["attrs"] == {"kernel": "dense", "queries": 32}

    def test_orphan_parent_becomes_root(self):
        # A span whose parent never finished (it lived in a forked
        # worker, or is still open) must render as a root, not vanish.
        tracer = Tracer()
        orphan = Span(tracer, "filter", parent_id=10 ** 9, attrs={})
        with orphan:
            pass
        forest = tracer.to_dicts()
        assert [node["name"] for node in forest] == ["filter"]


class TestExceptions:
    def test_span_closes_and_records_error(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError, match="boom"):
                with span("refine") as s:
                    raise ValueError("boom")
        assert s.end_ns is not None
        assert s.error == "ValueError"
        assert tracer.stage_counts() == {"refine": 1}

    def test_outer_span_survives_inner_failure(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query") as outer:
                with pytest.raises(KeyError):
                    with span("filter"):
                        raise KeyError("x")
                with span("refine") as after:
                    pass
        assert outer.error is None
        assert after.parent_id == outer.span_id

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                assert get_tracer() is tracer
                raise RuntimeError
        assert get_tracer() is NOOP

    def test_error_shown_in_tree(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError):
                with span("filter"):
                    raise ValueError
        assert "!ValueError" in tracer.format_tree()


class TestNoopMode:
    def test_default_tracer_is_noop(self):
        assert get_tracer() is NOOP
        assert isinstance(NOOP, NoopTracer)
        assert NOOP.enabled is False

    def test_noop_span_is_shared_singleton(self):
        a = span("query")
        b = span("filter", method="index")
        assert a is b is _NOOP_SPAN

    def test_noop_emits_nothing(self):
        with span("query"):
            with span("filter"):
                pass
        assert NOOP.finished() == []

    def test_noop_set_is_chainable(self):
        with span("tile") as s:
            assert s.set(queries=4) is s

    def test_noop_never_swallows(self):
        with pytest.raises(ValueError):
            with span("query"):
                raise ValueError

    def test_real_tracer_leaves_no_residue_in_noop(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query"):
                pass
        with span("query"):  # back in no-op mode
            pass
        assert len(tracer.finished()) == 1


class TestThreads:
    def test_threads_keep_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        spans_by_thread = {}

        def work(tag):
            with tracer.span(f"query-{tag}") as outer:
                barrier.wait()  # both outers open concurrently
                with tracer.span(f"filter-{tag}") as inner:
                    pass
            spans_by_thread[tag] = (outer, inner)

        threads = [threading.Thread(target=work, args=(t,)) for t in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for tag in "ab":
            outer, inner = spans_by_thread[tag]
            # each inner is parented to its own thread's outer, never
            # to the other thread's concurrently-open span
            assert inner.parent_id == outer.span_id
        assert len(tracer.finished()) == 4


class TestInspection:
    def test_stage_seconds_sums_and_sorts(self):
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(3):
                with span("filter"):
                    pass
            with span("refine"):
                pass
        stages = tracer.stage_seconds()
        assert list(stages) == ["filter", "refine"]
        assert stages["filter"] >= 0
        assert tracer.stage_counts() == {"filter": 3, "refine": 1}
        assert tracer.total_seconds("filter") == pytest.approx(stages["filter"])
        assert tracer.total_seconds("missing") == 0.0

    def test_reset_clears_finished(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query"):
                pass
        tracer.reset()
        assert tracer.finished() == []
        assert tracer.stage_seconds() == {}

    def test_format_tree_indents_and_truncates(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query", method="index"):
                for _ in range(5):
                    with span("filter"):
                        pass
        tree = tracer.format_tree()
        lines = tree.splitlines()
        assert "query" in lines[0] and "method=index" in lines[0]
        assert all("  filter" in line for line in lines[1:])
        truncated = tracer.format_tree(max_spans=2)
        assert "... (4 more spans)" in truncated

    def test_to_dict_shape(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("query", k=3) as s:
                pass
        d = s.to_dict()
        assert d["name"] == "query"
        assert d["duration_ns"] == s.duration_ns
        assert d["attrs"] == {"k": 3}
        assert "error" not in d

    def test_open_span_duration_is_none(self):
        tracer = Tracer()
        s = tracer.span("query")
        s.__enter__()
        assert s.duration_ns is None
        assert s.duration_s == 0.0
        s.__exit__(None, None, None)
        assert s.duration_ns >= 0
