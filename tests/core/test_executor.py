"""The core count benchmarks record and the BLAS budget shard workers run.

``available_cpu_count`` must follow the process's affinity mask and its
cgroup CPU quota, not the machine: under a pinned or cgroup-limited
container the machine count oversubscribes.  The shard supervisor
splits that count into one OpenBLAS thread budget per primary
(cores = worker processes × BLAS threads); these tests pin the
arithmetic, the ctypes setter, the budget each worker role reports,
and that the thread count never changes an answer.
"""

import os

import numpy as np
import pytest

from repro.core import executor
from repro.core.batch import BatchQueryEngine
from repro.core.executor import (
    available_cpu_count,
    blas_budget,
    blas_threads,
    cgroup_cpu_quota,
    set_blas_threads,
)
from repro.core.indexed import IndexedSearcher
from repro.core.shard import ShardedDatabase
from repro.obs import get_registry


class TestAvailableCpuCount:
    def test_at_least_one(self):
        assert available_cpu_count() >= 1

    def test_respects_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        affinity = len(os.sched_getaffinity(0))
        quota = cgroup_cpu_quota()
        expected = affinity if quota is None else min(affinity, quota)
        assert available_cpu_count() == expected

    def test_never_above_machine_count(self):
        assert available_cpu_count() <= (os.cpu_count() or 1)

    def test_quota_caps_the_count(self, monkeypatch):
        monkeypatch.setattr(executor, "cgroup_cpu_quota", lambda: 1)
        assert available_cpu_count() == 1


class TestCgroupCpuQuota:
    def test_v2_quota_rounds_up(self, tmp_path):
        (tmp_path / "cpu.max").write_text("150000 100000\n")
        assert cgroup_cpu_quota(tmp_path) == 2

    def test_v2_max_is_unlimited(self, tmp_path):
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert cgroup_cpu_quota(tmp_path) is None

    def test_v1_quota(self, tmp_path):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("300000\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert cgroup_cpu_quota(tmp_path) == 3

    def test_v1_minus_one_is_unlimited(self, tmp_path):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("-1\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert cgroup_cpu_quota(tmp_path) is None

    def test_fractional_quota_is_one_core(self, tmp_path):
        (tmp_path / "cpu.max").write_text("20000 100000\n")
        assert cgroup_cpu_quota(tmp_path) == 1

    def test_missing_files_mean_no_quota(self, tmp_path):
        assert cgroup_cpu_quota(tmp_path) is None
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("100000\n")
        assert cgroup_cpu_quota(tmp_path) is None  # no period file


class TestBlasBudget:
    @pytest.mark.parametrize(
        "cpus, n_shards, budget",
        [(1, 2, 1), (2, 2, 1), (4, 2, 2), (4, 4, 1), (8, 3, 2)],
    )
    def test_arithmetic(self, cpus, n_shards, budget):
        assert blas_budget(cpus, n_shards) == budget
        assert n_shards * budget <= max(cpus, n_shards)


def _openblas_named() -> bool:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in f"{blas.get('name', '')}".lower()


def _require_setter():
    if executor._find_openblas() is None:
        pytest.skip("no OpenBLAS thread setter in this numpy")


@pytest.fixture
def restore_blas_threads():
    before = blas_threads()
    yield
    if before is not None:
        set_blas_threads(before)


class TestBlasThreads:
    def test_setter_found_when_numpy_bundles_openblas(self):
        # Runs against every numpy CI installs: a wheel that renames or
        # moves the symbol must fail here, not silently drop the budget.
        if not _openblas_named():
            pytest.skip("numpy's build config names no OpenBLAS")
        assert executor._find_openblas() is not None
        assert blas_threads() is not None

    def test_set_reads_back(self, restore_blas_threads):
        _require_setter()
        assert set_blas_threads(1) == 1 == blas_threads()

    def test_missing_library_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(executor, "_find_openblas", lambda: None)
        assert set_blas_threads(1) is None
        assert blas_threads() is None

    def test_thread_count_never_changes_an_answer(self, restore_blas_threads):
        # The dense kernel's GEMM sums 0/1 float32 values to counts far
        # below 2^24: exact in any order, so any thread split agrees.
        _require_setter()
        rng = np.random.default_rng(41)
        sets = [
            np.unique(rng.integers(0, 3000, rng.integers(40, 200)))
            for _ in range(1500)
        ]
        queries = [
            np.unique(rng.integers(0, 3000, rng.integers(40, 200)))
            for _ in range(96)
        ]
        engine = BatchQueryEngine(IndexedSearcher(sets), kernel="dense")

        def answers():
            return [
                [(n.index, float(n.similarity).hex()) for n in r.neighbors]
                for r in engine.query_batch(queries, k=10)
            ]

        default = answers()
        assert engine.last_kernels and set(engine.last_kernels) == {"dense"}
        set_blas_threads(1)
        assert answers() == default


def _tiny_sharded(directory, n_shards, replicas=0):
    rng = np.random.default_rng(3)
    series = [rng.normal(size=24) for _ in range(40)]
    return ShardedDatabase.build(
        series, n_shards, directory, sigma=1, epsilon=0.5, replicas=replicas
    )


class TestWorkerBudget:
    def test_primary_budget_follower_one_promoted_budget(
        self, tmp_path, monkeypatch
    ):
        _require_setter()
        # Pretend to 4 cores so the primary budget (2) differs from a
        # follower's one thread; the count is only set, never used here.
        monkeypatch.setattr("repro.core.shard.available_cpu_count", lambda: 4)
        budget = blas_budget(4, 2)
        with _tiny_sharded(tmp_path / "s", 2, replicas=1) as sdb:
            status = sdb.status()
            assert [e["blas_threads"] for e in status["per_shard"]] == [budget] * 2
            gauges = get_registry().snapshot()["gauges"]
            for shard in ("0", "1"):
                key = 'sts3_shard_blas_threads{role="%s",shard="' + shard + '"}'
                assert gauges[key % "primary"] == budget
                assert gauges[key % "follower"] == 1
            followers = sdb._replicas.live(0)
            reply = sdb._rpc(followers[0].conn, {"op": "status"})
            assert reply["blas_threads"] == 1
            assert sdb.promote(0)["blas_threads"] == budget
            assert sdb.status()["per_shard"][0]["blas_threads"] == budget

    def test_missing_setter_reports_null(self, tmp_path, monkeypatch):
        # fork carries the patched finder into the worker
        monkeypatch.setattr(executor, "_find_openblas", lambda: None)
        with _tiny_sharded(tmp_path / "s", 1) as sdb:
            assert sdb.status()["per_shard"][0]["blas_threads"] is None
