"""``--quick`` runs of all four workloads, as the driver would start them."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

import pytest

from harness.hygiene import WORK_ROOT
from harness.spec import BENCH_ROOT, REPO_ROOT, load_spec, metric_table, workload_names

RUN = [sys.executable, str(BENCH_ROOT / "run.py")]
WORKLOADS = workload_names(load_spec())
#: every process a test starts carries this in its environment, and so
#: does whatever that process starts: it tells the benchmark's processes
#: from all others on the machine.
TAG = "E2E_BENCH_SELF_TEST"

#: per-layer metrics of layers that ARE on each workload's path: never 0 there.
ON_PATH = {
    "direct_knn": [
        "core.setrep.transform_us", "core.indexed.query_ms", "core.batch.ms_per_query",
        "core.pruning.query_ms", "core.approximate.query_ms", "core.naive.query_ms",
        "core.planner.auto_query_ms", "core.database.insert_p99_us",
        "core.persistence.open_eager_ms", "obs.stage.filter_ms",
    ],
    "served_knn": [
        "serve.protocol.pack_us", "serve.protocol.response_bytes", "serve.server.ping_p50_us",
        "serve.service.query_p50_ms", "serve.service.window_mean_queries",
        "serve.query_p99_ms", "core.cache.hit_ratio", "core.database.query_ms",
        "core.persistence.open_mmap_ms",
    ],
    "sharded_knn": [
        "core.shard.engine_floor_ms", "core.shard.overhead_ms", "core.shard.spawn_s",
        "core.shard.query_p99_ms", "core.rpc.status_roundtrip_us", "serve.protocol.unpack_us",
        "core.wal.append_us", "core.wal.bytes_per_user_byte",
    ],
    "ingest_mixed": [
        "core.catalog.seals", "core.catalog.live_segments_max", "core.maintenance.merges",
        "core.maintenance.foreground_stall_max_ms", "core.wal.fsyncs", "core.wal.sync_ms",
        "core.planner.overhead_ms", "core.planner.auto_query_ms",
        "core.database.insert_max_ms", "core.persistence.save_s",
    ],
}


def tagged_pids(tag):
    """Pids of the live processes that carry ``TAG=tag`` in their environment."""
    needle = f"{TAG}={tag}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/environ", "rb") as handle:
                    if needle in handle.read().split(b"\0"):
                        found.append(int(entry))
            except OSError:
                pass  # gone, or not ours to read
    return found


def scratch_entries():
    return set(WORK_ROOT.iterdir()) if WORK_ROOT.exists() else set()


class Launch:
    """Start the runner tagged; afterwards, check that nothing of it is left."""

    def __init__(self, *args, **popen_args):
        self.tag = uuid.uuid4().hex
        self.scratch_before = scratch_entries()
        self.proc = subprocess.Popen(
            RUN + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=os.environ | {TAG: self.tag}, **popen_args,
        )

    def finish(self, timeout):
        self.stdout, self.stderr = self.proc.communicate(timeout=timeout)
        return self.proc.returncode

    def tail(self):
        return self.stdout[-2000:] + self.stderr[-2000:]

    def assert_nothing_left_behind(self):
        assert tagged_pids(self.tag) == []
        assert scratch_entries() - self.scratch_before == set()


def run_quick(workload, trace, seed=5):
    launch = Launch("--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--quick")
    assert launch.finish(timeout=120) == 0, launch.tail()
    launch.assert_nothing_left_behind()
    return launch.stdout, json.loads(launch.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_exactly_the_declared_metrics(workload, trace):
    out, result = run_quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 64
    declared = metric_table(load_spec(), "per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], (int, float)) and metric["value"] == metric["value"]
        assert f"  {name} " in out  # printed by name in the report too
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "waterfall query" in out and "(unattributed)" in out
        for name in ON_PATH[workload]:
            assert result["metrics"][name]["value"] > 0, name


def test_same_seed_repeats_the_work_counters_exactly():
    counters = [
        "core.indexed.candidates_per_query", "core.indexed.exact_computations_per_query",
        "core.pruning.pruned_ratio", "core.approximate.exact_computations_per_query",
    ]
    _, first = run_quick("direct_knn", 1, seed=9)
    _, again = run_quick("direct_knn", 1, seed=9)
    _, other = run_quick("direct_knn", 1, seed=10)
    for name in counters:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"] > 0
    assert any(
        first["metrics"][name]["value"] != other["metrics"][name]["value"] for name in counters
    )


def test_the_set_runs_every_workload_and_writes_a_result_file(tmp_path):
    out = tmp_path / "set.json"
    launch = Launch("--quick", "--seconds", "1", "--seed", "2", "--out", str(out))
    assert launch.finish(timeout=200) == 0, launch.tail()
    data = json.loads(out.read_text())
    assert [run["workload"] for run in data["runs"]] == WORKLOADS
    assert {"usable_cores", "python", "numpy", "git_commit"} <= set(data["env"])
    assert all(
        run["seed"] == 2 and run["correct"] and run["status"] == "measured"
        for run in data["runs"]
    )
    assert "4 runs, 0 not correct, 0 without a result" in launch.stdout
    launch.assert_nothing_left_behind()


def test_sigterm_to_the_set_runner_ends_its_workload_and_the_shard_workers():
    launch = Launch("--workload", "sharded_knn", "--repeat", "3", "--seconds", "1", "--quick")
    try:
        # the set runner, the workload's process and its two forked workers
        deadline = time.monotonic() + 60
        while len(tagged_pids(launch.tag)) < 4:
            assert launch.proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        launch.proc.send_signal(signal.SIGTERM)
        assert launch.finish(timeout=60) == 124, launch.tail()
    finally:
        launch.proc.kill()
    assert "run aborted by SIGTERM" in launch.stderr
    launch.assert_nothing_left_behind()


def test_on_one_core_the_set_skips_sharded_knn_with_a_record(tmp_path):
    out = tmp_path / "one-core.json"
    core = min(os.sched_getaffinity(0))
    launch = Launch(
        "--workload", "sharded_knn", "--repeat", "2", "--quick", "--out", str(out),
        preexec_fn=lambda: os.sched_setaffinity(0, {core}),
    )
    assert launch.finish(timeout=60) == 0, launch.tail()
    assert "0 runs, 0 not correct, 0 without a result, 2 not measurable here" in launch.stdout
    data = json.loads(out.read_text())
    assert data["env"]["usable_cores"] == 1
    assert [run["status"] for run in data["runs"]] == ["not measurable here"] * 2
    assert all("metrics" not in run and "1 usable core" in run["reason"] for run in data["runs"])
    launch.assert_nothing_left_behind()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_ROOT, tmp_path / BENCH_ROOT.name,
        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache", "results"),
    )
    proc = subprocess.run(
        [sys.executable, f"{BENCH_ROOT.name}/run.py", "--workload", "direct_knn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not here" in proc.stderr
