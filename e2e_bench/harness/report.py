"""Result files, the printed report, and ``compare``.

Imports nothing of the program at module level, so ``run.py compare``
reads two result files anywhere.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path

from .spec import REPO_ROOT, metric_table
from .stats import quartiles, relative_spread

__all__ = [
    "compare",
    "environment",
    "print_run",
    "print_summary",
    "result_line",
]


def environment() -> dict:
    """Where a result was taken: it is only comparable with its like."""
    import numpy

    from repro.core.executor import available_cpu_count

    return {
        "usable_cores": available_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_commit() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"  # an exported checkout; never ask a parent directory's repo
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def result_line(run: dict) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    })


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def print_run(run: dict, spec: dict) -> None:
    """Every metric of one run by name, with its unit."""
    kind = "per_layer" if run["trace"] else "end_to_end"
    declared = metric_table(spec, kind)
    print(
        f"== {run['workload']}  seed={run['seed']} seconds={run['seconds']} "
        f"trace={run['trace']}{' quick' if run['quick'] else ''}  "
        f"(wall {run['wall_s']:.1f}s)"
    )
    width = max(len(name) for name in run["metrics"])
    for name, metric in run["metrics"].items():
        bound = declared[name].get("bound")
        tail = f"  {declared[name]['better']} is better"
        if bound is not None:
            tail += f", bound {bound:.0%}"
        print(f"  {name:<{width}}  {_fmt(metric['value']):>12} {metric['unit']:<6}{tail}")
    ratio = run["failed"] / run["attempted"]
    print(
        f"  failed_ops_ratio = {run['failed']}/{run['attempted']} = {ratio:g}"
        f"  -> {'correct' if run['correct'] else 'NOT CORRECT'}"
    )
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    for name, fall in run.get("waterfalls", {}).items():
        print_waterfall(name, fall)
    for name, value in sorted(run.get("notes", {}).items()):
        if name not in ("plan", "maintenance"):
            print(f"  note {name}: {value}")


def print_waterfall(name: str, fall: dict) -> None:
    """One waterfall: per-layer median self time; rows add up to the top line."""
    total = fall["end_to_end"]
    print(
        f"  waterfall {name}: end-to-end median {total * 1e3:.3f} ms over "
        f"{fall['requests']} requests, {fall['sampled']} replayed layer by layer"
    )
    rows = sorted(fall["layers"].items(), key=lambda kv: -kv[1])
    rows.append(("(unattributed)", fall["unattributed"]))
    for layer, seconds in rows:
        share = seconds / total if total else 0.0
        print(f"    {layer:<28} {seconds * 1e3:>9.3f} ms  {share:>6.1%}")


def print_summary(runs: list[dict], spec: dict) -> None:
    """Median and quartiles per workload and metric over repeated runs."""
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        declared = metric_table(spec, kind)
        groups: dict[str, list[dict]] = {}
        for run in runs:
            if run["trace"] == trace:
                groups.setdefault(run["workload"], []).append(run)
        for workload, group in groups.items():
            if len(group) < 2:
                continue
            print(f"== {workload}: {len(group)} runs, trace={trace}")
            for name in declared:
                values = [r["metrics"][name]["value"] for r in group]
                q1, q2, q3 = quartiles(values)
                spread = relative_spread(values)
                bound = declared[name].get("bound")
                flag = ""
                if bound is not None and name != "setup_s" and spread > bound:
                    flag = "  SPREAD WIDER THAN BOUND"
                print(
                    f"  {name:<44} median {_fmt(q2):>12} {declared[name]['unit']:<6}"
                    f" q1 {_fmt(q1):>12} q3 {_fmt(q3):>12} spread {spread:>6.1%}{flag}"
                )


def _load_runs(path: Path) -> list[dict]:
    """The untraced runs of a result file that were measured (not skipped)."""
    data = json.loads(Path(path).read_text())
    return [r for r in data["runs"] if not r["trace"] and r["status"] == "measured"]


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Print every end-to-end metric per workload, B against base A.

    A move past the declared bound is flagged; where either side's
    spread is wider than the bound the pair is "unresolved" unless
    every run of one side reads better than every run of the other.
    Returns the number of regressions.
    """
    declared = metric_table(spec, "end_to_end")
    runs_a, runs_b = _load_runs(path_a), _load_runs(path_b)
    regressions = 0
    print(f"base A = {path_a}   B = {path_b}")
    for workload in dict.fromkeys(r["workload"] for r in runs_a + runs_b):
        side_a = [r for r in runs_a if r["workload"] == workload]
        side_b = [r for r in runs_b if r["workload"] == workload]
        if not side_a or not side_b:
            print(f"== {workload}: only in {'A' if side_a else 'B'}, not compared")
            continue
        print(f"== {workload}: {len(side_a)} runs of A, {len(side_b)} runs of B")
        for name, meta in declared.items():
            a = [r["metrics"][name]["value"] for r in side_a]
            b = [r["metrics"][name]["value"] for r in side_b]
            med_a, med_b = quartiles(a)[1], quartiles(b)[1]
            ratio = med_b / med_a if med_a else float("inf")
            worse = ratio - 1.0 if meta["better"] == "lower" else 1.0 - ratio
            higher = meta["better"] == "higher"
            b_all_better = (min(b) > max(a)) if higher else (max(b) < min(a))
            a_all_better = (min(a) > max(b)) if higher else (max(a) < min(b))
            noisy = max(relative_spread(a), relative_spread(b)) > meta["bound"]
            if noisy and not (b_all_better or a_all_better):
                verdict = "unresolved (spread wider than bound)"
            elif worse > meta["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > meta["bound"]:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(
                f"  {name:<28} A {_fmt(med_a):>12}  B {_fmt(med_b):>12} {meta['unit']:<6}"
                f" B/A {ratio:6.3f} (base A {_fmt(med_a)})  bound {meta['bound']:.0%}  {verdict}"
            )
    return regressions
