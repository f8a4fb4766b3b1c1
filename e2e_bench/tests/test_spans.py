"""Self-time arithmetic and the waterfall's add-up property."""

import pytest

from harness.spans import Span, SpanRecorder, self_times, waterfall


def _tree(request, e2e, service, database, planner, setrep, indexed, first_id):
    """root ⊃ service ⊃ database ⊃ planner ⊃ {setrep, indexed}, logical parents."""
    names = ["end_to_end.query", "serve.service", "core.database", "core.planner"]
    durations = [e2e, service, database, planner]
    spans, parent = [], None
    for offset, (name, duration) in enumerate(zip(names, durations)):
        spans.append(Span(first_id + offset, name, request, parent, 0.0, duration))
        parent = first_id + offset
    spans.append(Span(first_id + 4, "core.setrep", request, parent, 0.0, setrep))
    spans.append(Span(first_id + 5, "core.indexed", request, parent, 0.0, indexed))
    return spans


def test_self_time_is_duration_minus_children():
    spans = _tree(1, 10.0, 7.0, 4.0, 3.5, 0.5, 2.0, first_id=1)
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)   # end to end minus the service
    assert own[2] == pytest.approx(3.0)   # service minus the database
    assert own[3] == pytest.approx(0.5)   # database minus the planner
    assert own[4] == pytest.approx(1.0)   # planner minus its two leaves
    assert own[5] == pytest.approx(0.5)
    assert own[6] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_waterfall_rows_add_up_to_the_end_to_end_median():
    spans = []
    spans += _tree(1, 10.0, 7.0, 4.0, 3.5, 0.5, 2.0, first_id=1)
    spans += _tree(2, 12.0, 8.0, 4.5, 3.0, 0.4, 2.2, first_id=11)
    # unsampled requests have a root span only, and still count in the median
    spans.append(Span(21, "end_to_end.query", 3, None, 0.0, 11.0))
    spans.append(Span(22, "end_to_end.query", 4, None, 0.0, 30.0))
    # another kind of request must not leak in
    spans.append(Span(23, "end_to_end.insert", 5, None, 0.0, 100.0))
    spans.append(Span(24, "core.wal", 5, 23, 0.0, 60.0))
    fall = waterfall(spans, "end_to_end.query")
    assert fall["requests"] == 4 and fall["sampled"] == 2
    assert fall["end_to_end"] == pytest.approx(11.5)
    assert set(fall["layers"]) == {
        "serve.service", "core.database", "core.planner", "core.setrep", "core.indexed",
    }
    assert fall["layers"]["serve.service"] == pytest.approx(3.25)
    assert sum(fall["layers"].values()) + fall["unattributed"] == pytest.approx(fall["end_to_end"])
    assert waterfall(spans, "end_to_end.insert")["layers"] == {"core.wal": 60.0}
    with pytest.raises(ValueError):
        waterfall(spans, "end_to_end.batch")


def test_recorder_records_name_interval_parent_and_request():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("end_to_end.query", request=7) as root:
        pass
    with rec.span("core.database", request=7, parent=root):
        pass
    derived = rec.add("core.rpc", 7, root, 10.0, 10.5)
    assert [(s.name, s.request, s.parent) for s in rec.spans] == [
        ("end_to_end.query", 7, None), ("core.database", 7, root), ("core.rpc", 7, root),
    ]
    assert rec.spans[0].duration == 1.0 and rec.spans[2].duration == 0.5
    assert derived == rec.spans[2].id
    assert rec.to_json()[1]["parent"] == root
