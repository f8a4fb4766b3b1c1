"""How many CPUs this process may use, and how many BLAS threads it runs.

The engine runs each query as one plain loop over its segments; the
way to use more cores is one persistent process per shard
(:mod:`repro.core.shard`).  Inside each process numpy's OpenBLAS runs
the batch engine's one-hot GEMM on a thread pool that defaults to one
thread per machine core, so N shard workers would run N pools on the
same cores.  The rule this module lets the shard supervisor enforce is
**cores = worker processes × BLAS threads** (DESIGN.md §16):

- :func:`available_cpu_count` — the cores this process may use
  (affinity mask and CFS quota), which benchmarks and reports record;
- :func:`blas_budget` — each shard primary's share of them;
- :func:`set_blas_threads` / :func:`blas_threads` — apply and read the
  thread count of numpy's bundled OpenBLAS through ``ctypes``.  When
  no setter can be found (another BLAS, a numpy not from a wheel) they
  do nothing and return ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from pathlib import Path

__all__ = [
    "available_cpu_count",
    "blas_budget",
    "blas_threads",
    "set_blas_threads",
]


def available_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the container: under a
    pinned affinity mask or a CPU-limited cgroup it oversubscribes.
    ``sched_getaffinity`` reflects the mask (and cpusets) where the
    platform supports it; a CFS quota (``cpu.max`` or
    ``cpu.cfs_quota_us``) caps it further, rounded up to whole cores.
    """
    try:
        count = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        count = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    return count if quota is None else min(count, quota)


def cgroup_cpu_quota(root: str | Path = "/sys/fs/cgroup") -> int | None:
    """Whole cores a CFS quota under ``root`` allows, or None if unlimited.

    Reads cgroup v2 ``cpu.max`` (``"<quota> <period>"`` or
    ``"max <period>"``), else v1 ``cpu/cpu.cfs_quota_us`` over
    ``cpu/cpu.cfs_period_us`` (quota ``-1`` is unlimited).  Missing or
    unreadable files mean no quota.
    """
    root = Path(root)
    try:
        quota, period = (root / "cpu.max").read_text().split()[:2]
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max"
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return max(1, math.ceil(quota_us / period_us))


def blas_budget(cpus: int, n_shards: int) -> int:
    """BLAS threads for each of ``n_shards`` primaries sharing ``cpus``."""
    return max(1, int(cpus) // max(1, int(n_shards)))


# numpy>=2 wheels bundle scipy-openblas with prefixed, 64-bit-int
# symbols; numpy<2 wheels bundle OpenBLAS with the ``64_`` suffix only.
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")


@functools.lru_cache(maxsize=None)
def _find_openblas():
    """The OpenBLAS a numpy wheel bundles, if its thread setter resolves.

    The wheel's copy sits in ``numpy.libs`` (Linux, Windows) or
    ``numpy/.dylibs`` (macOS); opening the same file again returns the
    handle numpy already loaded, so the setter acts on numpy's pool.
    """
    import numpy

    package = Path(numpy.__file__).parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(glob.glob(str(folder / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if any(hasattr(lib, name) for name in _SETTERS):
                return lib
    return None


def _symbol(names):
    lib = _find_openblas()
    if lib is None:
        return None
    return next((getattr(lib, n) for n in names if hasattr(lib, n)), None)


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None when it cannot be read."""
    getter = _symbol(_GETTERS)
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


def set_blas_threads(n: int) -> int | None:
    """Run OpenBLAS on ``n`` threads; returns the count read back.

    Returns None (and changes nothing) when no setter is found.  The
    count is process-wide: the shard supervisor calls this only inside
    worker processes, never in the parent.
    """
    setter = _symbol(_SETTERS)
    if setter is None:
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    n = max(1, int(n))
    setter(n)
    read = blas_threads()
    return n if read is None else read
