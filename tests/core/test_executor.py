"""The CPU count benchmarks and reports record.

``available_cpu_count`` must follow the process's affinity mask, not
the machine: under a pinned or cgroup-limited container the machine
count oversubscribes.
"""

import os

import pytest

from repro.core.executor import available_cpu_count


class TestAvailableCpuCount:
    def test_at_least_one(self):
        assert available_cpu_count() >= 1

    def test_respects_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        assert available_cpu_count() == len(os.sched_getaffinity(0))

    def test_never_above_machine_count(self):
        assert available_cpu_count() <= (os.cpu_count() or 1)
