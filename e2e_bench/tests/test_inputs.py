"""Same seed, same bytes; another seed, other bytes."""

import numpy as np
import pytest

from harness.inputs import LENGTH, make_inputs, ramped_stream
from harness.lifecycle import build_ops, plan_for, pool_size


def test_same_seed_gives_byte_identical_inputs():
    a, b = make_inputs(50, 40, seed=11), make_inputs(50, 40, seed=11)
    assert a.digest() == b.digest()
    assert all(len(s) == LENGTH for s in a.base + a.pool)


def test_another_seed_gives_other_inputs():
    assert make_inputs(50, 40, seed=11).digest() != make_inputs(50, 40, seed=12).digest()


def test_pool_is_dealt_once_and_never_overdrawn():
    inputs = make_inputs(20, 10, seed=1)
    first, second = inputs.take(4), inputs.take(4)
    assert not any(a is b for a in first for b in second)
    with pytest.raises(ValueError):
        inputs.take(3)


def test_in_bound_series_stay_inside_the_collection_range():
    inputs = make_inputs(20, 10, seed=1)
    for s in inputs.take_in_bound(10):
        assert s.min() >= inputs.low and s.max() <= inputs.high


def test_ramped_stream_breaks_the_bound_every_fourth_series_and_more_each_time():
    inputs = make_inputs(20, 16, seed=1)
    stream = ramped_stream(inputs.take(16), seed=1)
    peaks = [float(s.max()) for s in stream]
    spikes = peaks[3::4]
    assert spikes == sorted(spikes) and spikes[0] >= 20.0
    assert all(p < 20.0 for i, p in enumerate(peaks) if i % 4 != 3)


@pytest.mark.parametrize("workload", ["direct_knn", "served_knn", "ingest_mixed"])
def test_operation_sequence_is_a_function_of_the_seed(workload):
    plan = plan_for(workload, 12, quick=True)
    callers = 2 if workload == "served_knn" else 1

    def sequence(seed):
        inputs = make_inputs(60, pool_size(plan), seed)
        ops = build_ops(workload, inputs, plan, callers)
        return [[(kind, s.tobytes()) for kind, s in caller] for caller in ops]

    assert sequence(5) == sequence(5)
    assert sequence(5) != sequence(6)


def test_ingest_stream_is_four_inserts_to_one_query():
    plan = plan_for("ingest_mixed", 12, quick=True)
    inputs = make_inputs(60, pool_size(plan), seed=3)
    (ops,) = build_ops("ingest_mixed", inputs, plan, 1)
    kinds = [kind for kind, _ in ops]
    assert kinds[:5] == ["insert"] * 4 + ["query"]
    assert kinds.count("insert") == 4 * kinds.count("query") == plan.inserts


def test_served_schedule_repeats_only_its_hot_set():
    plan = plan_for("served_knn", 12, quick=False)
    inputs = make_inputs(60, pool_size(plan), seed=3)
    ops = build_ops("served_knn", inputs, plan, 2)
    sent = [id(s) for caller in ops for _, s in caller]
    repeated = {i for i in sent if sent.count(i) > 1}
    assert 0 < len(repeated) <= 64
    share = sum(1 for i in sent if i in repeated) / len(sent)
    assert 0.2 < share < 0.4
    assert np.isfinite(share)
