"""How many CPUs this process may use.

The engine runs each query as one plain loop over its segments; the
way to use more cores is one persistent process per shard
(:mod:`repro.core.shard`).  Benchmarks and reports still need to know
the core count they ran on, which is what lives here.
"""

from __future__ import annotations

import os

__all__ = ["available_cpu_count"]


def available_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the container: under a
    CPU-limited cgroup or a pinned affinity mask it oversubscribes.
    ``sched_getaffinity`` reflects the real allowance where the
    platform supports it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1
