"""``run.py compare``: one row per metric and workload, ratio with its base."""

import json

from harness.report import compare
from harness.spec import load_spec


def _result_file(path, workload, values_per_metric):
    spec = load_spec()
    n = len(next(iter(values_per_metric.values())))
    runs = []
    for i in range(n):
        metrics = {
            m["name"]: {"value": values_per_metric.get(m["name"], [1.0] * n)[i], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        runs.append({
            "workload": workload, "trace": 0, "seed": i, "status": "measured", "metrics": metrics,
        })
    runs.append({  # a skipped run carries no metrics and is never compared
        "workload": "sharded_knn", "trace": 0, "seed": 0, "status": "not measurable here",
    })
    path.write_text(json.dumps({"env": {}, "runs": runs}))
    return path


def test_compare_flags_regressions_improvements_and_noise(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", "direct_knn", {
        "query_p50_ms": [2.00, 2.02, 1.98, 2.01, 1.99],
        "queries_per_s": [500.0, 502.0, 498.0, 501.0, 499.0],
        "checkpoint_s": [0.10, 0.30, 0.05, 0.20, 0.15],
    })
    change = _result_file(tmp_path / "b.json", "direct_knn", {
        "query_p50_ms": [2.60, 2.62, 2.58, 2.61, 2.59],      # 30% slower: past the bound
        "queries_per_s": [700.0, 702.0, 698.0, 701.0, 699.0],  # 40% more: improved
        "checkpoint_s": [0.12, 0.28, 0.06, 0.22, 0.14],      # spread wider than bound
    })
    regressions = compare(base, change, load_spec())
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
    assert regressions == 1
    assert "REGRESSION" in rows["query_p50_ms"] and "B/A  1.300" in rows["query_p50_ms"]
    assert "(base A 2.000)" in rows["query_p50_ms"]
    assert "improved" in rows["queries_per_s"]
    assert "unresolved" in rows["checkpoint_s"]
    assert "within bound" in rows["recovery_s"]
    assert "== direct_knn: 5 runs of A, 5 runs of B" in out


def test_compare_reports_a_workload_only_one_side_has(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", "served_knn", {"query_p50_ms": [1.0, 1.0]})
    b = _result_file(tmp_path / "b.json", "direct_knn", {"query_p50_ms": [1.0, 1.0]})
    assert compare(a, b, load_spec()) == 0
    out = capsys.readouterr().out
    assert "served_knn: only in A" in out and "direct_knn: only in B" in out
    assert "sharded_knn" not in out
