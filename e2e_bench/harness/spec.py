"""``BENCHMARK.json`` is the one declaration of workloads and metrics."""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["BENCH_ROOT", "REPO_ROOT", "load_spec", "metric_table", "workload_names"]

BENCH_ROOT = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_ROOT.parent


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def metric_table(spec: dict, kind: str) -> dict[str, dict]:
    """``{name: declaration}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m for m in spec[kind]}
