"""BENCHMARK.json keeps to its contract."""

import re

from harness.lifecycle import PLANS, REF_SECONDS
from harness.spec import BENCH_ROOT, REPO_ROOT, load_spec, metric_table, workload_names

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == [BENCH_ROOT.name]
    assert spec["command"] == ["python3", f"{BENCH_ROOT.name}/run.py"]
    assert (REPO_ROOT / spec["command"][1]).is_file()
    assert spec["run_seconds"] == REF_SECONDS and 1 <= spec["run_seconds"] <= 60


def test_workloads_are_the_planned_ones_each_with_a_reason():
    spec = load_spec()
    assert workload_names(spec) == list(PLANS)
    assert workload_names(spec) == ["direct_knn", "served_knn", "sharded_knn", "ingest_mixed"]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_declarations():
    spec = load_spec()
    names = []
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    setup = metric_table(spec, "end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
