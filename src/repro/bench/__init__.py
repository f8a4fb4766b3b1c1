"""Experiment-harness support: timers, text tables, workload scaling.

Used by the ``benchmarks/`` suite to regenerate every table and figure
of the paper's evaluation section with consistent formatting and a
single ``REPRO_SCALE`` knob controlling workload sizes.
"""

from .levers import (
    run_cache_phase,
    run_combined_phase,
    run_lever_phases,
    run_mmap_phase,
)
from .replication import run_replication_phase
from .runner import repro_scale, run_traced, scaled
from .shard import run_shard_phase
from .tables import render_table
from .timer import Timer, time_callable

__all__ = [
    "Timer",
    "render_table",
    "repro_scale",
    "run_cache_phase",
    "run_combined_phase",
    "run_lever_phases",
    "run_mmap_phase",
    "run_replication_phase",
    "run_shard_phase",
    "run_traced",
    "scaled",
    "time_callable",
]
