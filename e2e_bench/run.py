#!/usr/bin/env python3
"""The repo's one benchmark: four workloads, end to end and layer by layer.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_bench/run.py [--workload NAME] [--seed N] [--traced] [--quick] [--repeat N] [--out FILE]
    python3 e2e_bench/run.py compare A.json B.json

With ``--workload`` (and no ``--repeat``) the workload runs in this
process, in the foreground, and the last line printed is the result as
one JSON object.  Otherwise the workloads of ``BENCHMARK.json`` run in
turn, each in a child process that is waited for (so peak memory and
the leftovers check are per run).  See ``e2e_bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parent
REPO_ROOT = BENCH_ROOT.parent
SRC = REPO_ROOT / "src"

#: one workload must end within this many seconds (the contract allows 180).
RUN_TIMEOUT_S = 170.0

EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2
EXIT_NOT_MEASURABLE = 3

MEASURED = "measured"
NOT_MEASURABLE = "not measurable here"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0, help="inputs are made from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the measured phases "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes (smoke test); numbers mean nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the set N times, seeds seed..seed+N-1, and "
                             "report median and quartiles")
    parser.add_argument("--out", type=Path, help="write the full result file here")
    return parser


def run_one(args, spec) -> int:
    """Run ``args.workload`` here; print its report and its result line."""
    from harness import hygiene
    from harness.report import environment, print_run, result_line
    from harness.spec import metric_table
    from repro.core.executor import available_cpu_count

    if args.workload == "sharded_knn" and available_cpu_count() < 2:
        # Two shard workers on one core measure the scheduler, not the
        # shard layer: say so instead of reporting a number.
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "status": NOT_MEASURABLE,
            "reason": f"{available_cpu_count()} usable core(s) < 2 shards",
        }
        print(json.dumps(record))
        if args.out:
            write_result(args.out, [record], environment())
        return EXIT_NOT_MEASURABLE

    if args.trace:
        from harness.probes import run_traced as measure
    else:
        from harness.lifecycle import run_untraced as measure
    started = time.perf_counter()
    with hygiene.guarded(RUN_TIMEOUT_S):
        try:
            with hygiene.Scratch() as scratch:
                outcome = measure(args.workload, args.seed, args.seconds, args.quick, scratch)
        finally:
            # Whatever happened above, nothing outlives this process: what
            # is still there is named, then killed and reaped.
            leftovers = hygiene.survivors()
            killed = hygiene.kill_children()
            for what in leftovers:
                print(f"left behind: {what}", file=sys.stderr)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = metric_table(spec, kind)
    missing = sorted(set(declared) ^ set(outcome["metrics"]))
    if missing:
        raise SystemExit(f"metrics emitted and declared differ: {missing}")
    tally = outcome["tally"]
    problems = list(tally.problems)
    problems += [f"left behind: {what}" for what in leftovers]
    problems += [f"killed leftover child pid {pid}" for pid in killed]
    run = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "status": MEASURED,
        "wall_s": time.perf_counter() - started,
        "correct": tally.failed == 0 and not leftovers and not killed,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": declared[name]["unit"]}
            for name in declared
        },
        "problems": problems,
        "notes": outcome["notes"],
        "waterfalls": outcome.get("waterfalls", {}),
    }
    print_run(run, spec)
    if args.out:
        write_result(args.out, [run | {"spans": outcome.get("spans", [])}], environment())
    print(result_line(run))
    return 0 if run["correct"] else EXIT_INCORRECT


def write_result(path: Path, runs: list[dict], env: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"env": env, "runs": runs}, indent=1) + "\n")


def run_child(workload: str, seed: int, args, out: Path) -> dict | None:
    """One workload in a child process of its own session, waited for.

    Returns the child's record (a measured run, or a "not measurable
    here" one), or ``None`` when it left none.  However the wait ends
    -- the child's exit, its time running out, a signal to this process
    -- nothing of the child's session and no scratch directory of its
    outlives this call.
    """
    from harness import hygiene

    command = [
        sys.executable, str(BENCH_ROOT / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ] + (["--quick"] if args.quick else [])
    child = subprocess.Popen(command, start_new_session=True)
    try:
        child.wait(timeout=RUN_TIMEOUT_S + hygiene.SESSION_GRACE_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: still running after its time, ended", file=sys.stderr)
    finally:
        cleaned = hygiene.end_session(child)
    for what in cleaned:
        print(f"{workload}: {what}", file=sys.stderr)
    if cleaned or not out.exists():
        print(f"{workload}: no result (exit status {child.returncode})", file=sys.stderr)
        return None
    run = json.loads(out.read_text())["runs"][0]
    out.unlink()
    return run


def run_set(args, spec, workloads: list[str]) -> int:
    """``workloads``, ``--repeat`` times, each run in a child; then the summary."""
    from harness import hygiene
    from harness.report import environment, print_summary

    runs: list[dict] = []
    skipped: list[dict] = []
    missing = 0
    with hygiene.guarded(None, hygiene.SET_GRACE_S), hygiene.Scratch() as scratch:
        for i in range(args.repeat):
            for workload in workloads:
                run = run_child(workload, args.seed + i, args, scratch / f"{workload}-{i}.json")
                if run is None:
                    missing += 1
                elif run["status"] == MEASURED:
                    runs.append(run)
                else:
                    skipped.append(run)
    if args.repeat > 1:
        print_summary(runs, spec)
    if args.out:
        write_result(args.out, runs + skipped, environment())
    incorrect = sum(1 for run in runs if not run["correct"])
    print(
        f"{len(runs)} runs, {incorrect} not correct, {missing} without a result, "
        f"{len(skipped)} {NOT_MEASURABLE}"
    )
    return 0 if not incorrect and not missing else EXIT_INCORRECT


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(BENCH_ROOT))
    if argv[:1] == ["compare"]:
        from harness.report import compare
        from harness.spec import load_spec

        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return 1 if compare(Path(argv[1]), Path(argv[2]), load_spec()) else 0

    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"the program is not here: {SRC / 'repro'} does not exist", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    from harness import hygiene
    from harness.spec import load_spec, workload_names

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in [None] + workload_names(spec):
        print(f"unknown workload {args.workload!r}; one of {workload_names(spec)}",
              file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_set(args, spec, workload_names(spec))
        if args.repeat > 1:
            return run_set(args, spec, [args.workload])
        return run_one(args, spec)
    except hygiene.RunAborted as exc:  # every finally on the way here has run
        print(exc, file=sys.stderr)
        return hygiene.EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
