"""Make the program (``src/``) and the harness (``e2e_bench/``) importable."""

import sys
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parents[1]
for path in (BENCH_ROOT.parent / "src", BENCH_ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
