"""The untraced run: one workload through its lifecycle, end-to-end metrics out.

Every workload goes through the same lifecycle, so every end-to-end
metric exists on every workload:

    set-up (several times) -> warm-up -> recall of ``approximate``
    -> read rounds:  main closed loop(s) | batches of 64 | checkpoints
    -> sampled answers checked against the naive oracle
    -> write rounds: inserts | checkpoints | un-checkpointed tail | restart

The phases come in rounds because this sandbox's speed drifts by some
10 % for seconds at a time: a metric sampled in every round sees the
whole run's weather, one sampled in a single two-second window sees
one gust.

Operation counts are fixed per workload and scale linearly with
``--seconds`` from the reference run length, so a seed fixes the exact
operation sequence and the program's work counters repeat.  Loops stop
early (and say so) once the run is far past its nominal length, so a
slow machine cannot run away with the time cap.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.exceptions import ReproError

from .deployments import DEPLOYMENTS, K, Deployment, answer_key
from .inputs import LENGTH, Inputs, make_inputs, ramped_stream
from .stats import median, percentile, quiet_quartile, slice_median, slice_rate

__all__ = [
    "BATCH",
    "PLANS",
    "Plan",
    "REF_SECONDS",
    "Samples",
    "Tally",
    "build_ops",
    "checked",
    "chunks",
    "closed_loops",
    "plan_for",
    "pool_size",
    "run_callers",
    "run_untraced",
    "setup_repeatedly",
    "timed",
    "verify_answers",
]

#: ``run_seconds`` of BENCHMARK.json; the counts in PLANS are sized for it.
REF_SECONDS = 12
#: queries per ``query_batch`` call (also the service's ``max_coalesce``).
BATCH = 64
#: answers hex-compared with the oracle per workload, at least.
VERIFY = 64
#: loops stop early once the measured part has run this many times ``--seconds``.
OVERRUN = 6.0
#: share of served_knn requests drawn from its hot set, and the set's size.
HOT_SHARE, HOT_SET = 0.3, 64
#: inserts per query in ingest_mixed's stream.
WRITES_PER_READ = 4
#: checkpoints taken back to back wherever the lifecycle checkpoints: the
#: first one after a burst of queries or inserts takes up to 1.7x as long
#: as the next ones, and a median over an even mix of the two kinds
#: would land on either.
CHECKPOINTS = 3

Op = tuple[str, np.ndarray]


@dataclass(frozen=True)
class Plan:
    """Operation counts of one workload at the reference run length."""

    n_series: int
    scalar: int         # scalar queries, all callers and rounds together
    batches: int        # query_batch calls of BATCH queries
    inserts: int        # for ingest_mixed: the inserts of its mixed stream
    tail: int           # un-checkpointed inserts before each restart (WAL only)
    recall: int = 384   # per-query recall has sd 0.25: fewer would be noise
    setups: int = 3
    read_rounds: int = 8
    write_rounds: int = 5


PLANS = {
    "direct_knn": Plan(n_series=20_000, scalar=2400, batches=64, inserts=1200, tail=0),
    "served_knn": Plan(n_series=4_000, scalar=2400, batches=96, inserts=1600, tail=0,
                       recall=512, setups=5, write_rounds=8),
    "sharded_knn": Plan(n_series=20_000, scalar=800, batches=48, inserts=400, tail=16),
    "ingest_mixed": Plan(n_series=10_000, scalar=800, batches=24, inserts=3200, tail=320,
                         recall=640, setups=5),
}

#: ``--quick``: the same lifecycle on toy sizes (harness self-tests).
QUICK = Plan(
    n_series=600, scalar=96, batches=2, inserts=96, tail=8, recall=16,
    setups=1, read_rounds=2, write_rounds=1,
)
#: 5 seals of 32 buffered series, every 4th insert breaking the bound.
QUICK_INGEST = replace(QUICK, scalar=160, inserts=640)


def plan_for(workload: str, seconds: float, quick: bool) -> Plan:
    if quick:
        return QUICK_INGEST if workload == "ingest_mixed" else QUICK
    plan = PLANS[workload]
    scale = seconds / REF_SECONDS
    return replace(
        plan,
        scalar=max(VERIFY * 2, round(plan.scalar * scale)),
        batches=max(plan.read_rounds, round(plan.batches * scale)),
        inserts=max(VERIFY, round(plan.inserts * scale)),
    )


def pool_size(plan: Plan) -> int:
    """Pool series a run consumes, with room for warm-up and checks."""
    return (
        plan.scalar + plan.batches * BATCH + plan.inserts
        + plan.tail * plan.write_rounds + plan.recall + HOT_SET + 2 * BATCH + 256
    )


def chunks(items: list, parts: int) -> list[list]:
    """``items`` cut into ``parts`` consecutive runs of near-equal length."""
    bounds = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[bounds[i]:bounds[i + 1]] for i in range(parts)]


@dataclass
class Tally:
    """Operations attempted and failed; merged across callers."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: 20 - len(self.problems)])


@dataclass
class Samples:
    """What one closed-loop caller measured, over all its rounds."""

    #: (kind, seconds) per completed operation, in order.
    timeline: list[tuple[str, float]] = field(default_factory=list)
    #: (query series, answer[, oracle answer]) per completed query kept.
    answers: list[tuple] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    truncated: bool = False
    seen_queries: int = 0

    def durations(self, kind: str) -> list[float]:
        return [d for k, d in self.timeline if k == kind]

    def typical(self, kind: str, slices: int) -> float:
        """Median latency of ``kind``: the median round's median."""
        return slice_median(self.durations(kind), slices)

    def rate(self, kind: str, slices: int) -> float:
        """Completed ``kind`` operations per second of this caller's loop."""
        return slice_rate(
            [d for _, d in self.timeline],
            [1 if k == kind else 0 for k, _ in self.timeline],
            slices,
        )


def checked(result, tally: Tally, what: str) -> bool:
    """Count an answer that came back degraded or short as a failure."""
    if not result.complete or len(result.neighbors) != K:
        tally.fail(f"{what}: degraded answer ({result.degraded_reason})")
        return False
    return True


def _closed_loop(
    dep: Deployment, caller: int, ops: list[Op], out: Samples, stop_at: float,
    oracle_every: int = 0,
) -> None:
    """One caller: each operation is sent when the previous one has answered.

    ``oracle_every`` > 0 is for a deployment whose layout moves between
    queries (writes beside reads): every that-many-th answer is compared
    at once, while the layout it was computed on still stands.
    """
    tally = out.tally
    clock = time.perf_counter
    for kind, series in ops:
        tally.attempted += 1
        generation = dep.oracle().catalog.generation if oracle_every else None
        start = clock()
        try:
            if kind == "query":
                result = dep.query(series, caller)
            else:
                dep.insert(series)
        except (ReproError, OSError) as exc:
            tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        end = clock()
        out.timeline.append((kind, end - start))
        if kind == "query" and checked(result, tally, "query"):
            out.seen_queries += 1
            if not oracle_every:
                out.answers.append((series, result))
            elif out.seen_queries % oracle_every == 0:
                # A background merge that published in between makes the
                # pair incomparable (merged segments get a new grid), and
                # it is dropped.
                want = dep.oracle().query(series, k=K, method="naive")
                if dep.oracle().catalog.generation == generation:
                    out.answers.append((series, result, want))
        if end > stop_at:
            out.truncated = True
            break


def run_callers(work, callers: int) -> None:
    """Call ``work(caller)`` for every caller, concurrently when there are several.

    Several callers start together behind a barrier; the first exception
    any of them raised is re-raised here once all have ended.
    """
    if callers == 1:
        work(0)
        return
    errors: list[BaseException] = []
    barrier = threading.Barrier(callers)

    def guarded_work(caller: int) -> None:
        try:
            barrier.wait(timeout=30)
            work(caller)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the joiner
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded_work, args=(i,), name=f"bench-caller-{i}")
        for i in range(callers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loops(
    dep: Deployment, ops_per_caller: list[list[Op]], samples: list[Samples],
    stop_at: float, oracle_every: int = 0,
) -> None:
    """Run every caller's closed loop over its operations."""
    run_callers(
        lambda caller: _closed_loop(
            dep, caller, ops_per_caller[caller], samples[caller], stop_at, oracle_every
        ),
        len(ops_per_caller),
    )


def build_ops(workload: str, inputs: Inputs, plan: Plan, callers: int) -> list[list[Op]]:
    """The main phase's operations, one list per caller (seed-determined)."""
    if workload == "ingest_mixed":
        writes = ramped_stream(inputs.take(plan.inserts), inputs.seed, WRITES_PER_READ)
        reads = inputs.take(plan.inserts // WRITES_PER_READ)
        ops: list[Op] = []
        for i, series in enumerate(writes):
            ops.append(("insert", series))
            if i % WRITES_PER_READ == WRITES_PER_READ - 1:
                ops.append(("query", reads[i // WRITES_PER_READ]))
        return [ops]
    if workload == "served_knn":
        hot = inputs.take(HOT_SET)
        rng = np.random.default_rng(inputs.seed)
        per_caller = []
        for _ in range(callers):
            ops = []
            for _ in range(plan.scalar // callers):
                if rng.random() < HOT_SHARE:
                    ops.append(("query", hot[int(rng.integers(0, HOT_SET))]))
                else:
                    ops.append(("query", inputs.take(1)[0]))
            per_caller.append(ops)
        return per_caller
    return [[("query", q) for q in inputs.take(plan.scalar)]]


def verify_answers(dep: Deployment, pairs, tally: Tally, what: str, limit: int = VERIFY) -> int:
    """Hex-compare up to ``limit`` evenly spaced answers with the naive oracle.

    ``pairs`` holds ``(series, answer)`` or, where the oracle had to
    answer at once, ``(series, answer, oracle answer)``.
    """
    if not pairs:
        return 0
    step = max(1, len(pairs) // limit)
    picked = pairs[::step][:limit]
    oracle = dep.oracle()
    for pair in picked:
        series, got = pair[0], pair[1]
        want = pair[2] if len(pair) == 3 else oracle.query(series, k=K, method="naive")
        tally.attempted += 1
        if answer_key(got) != answer_key(want):
            tally.fail(f"{what}: answer differs from the naive oracle's")
    return len(picked)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of the runner plus the largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_repeatedly(dep: Deployment, scratch: Path, times: int, tally: Tally) -> list[float]:
    """Set up ``times`` times, tearing down in between; the last one stays up."""
    seconds = []
    for i in range(times):
        if i:
            dep.teardown()
            gc.collect()  # or the next build's peak counts the last one's garbage
        directory = scratch / f"setup-{i}"
        directory.mkdir()
        tally.attempted += 1
        start = time.perf_counter()
        first = dep.setup(directory)
        seconds.append(time.perf_counter() - start)
        checked(first, tally, "set-up")
    return seconds


def run_untraced(workload: str, seed: int, seconds: float, quick: bool, scratch: Path) -> dict:
    """Run one workload with tracing off; returns metrics, tally and notes."""
    plan = plan_for(workload, seconds, quick)
    inputs = make_inputs(plan.n_series, pool_size(plan), seed)
    dep = DEPLOYMENTS[workload](inputs, scratch)
    tally = Tally()
    notes: dict = {"plan": asdict(plan)}
    mixed = workload == "ingest_mixed"
    try:
        setup_s = setup_repeatedly(dep, scratch, plan.setups, tally)

        main_rounds = [
            chunks(ops, plan.read_rounds)
            for ops in build_ops(workload, inputs, plan, dep.callers)
        ]
        batch_rounds = chunks(
            [inputs.take(BATCH) for _ in range(plan.batches)], plan.read_rounds
        )
        recall_queries = inputs.take(plan.recall)
        write_rounds = chunks(
            [] if mixed else [("insert", s) for s in inputs.take_in_bound(plan.inserts)],
            plan.write_rounds,
        )
        tail = [("insert", s) for s in inputs.take_in_bound(
            plan.tail * plan.write_rounds if dep.has_wal else 0)]
        tail_rounds = chunks(tail, plan.write_rounds)
        after_write_queries = inputs.take(16)
        oracle_every = 0
        if mixed:  # the layout moves under the queries: compare on the spot
            oracle_every = max(1, plan.inserts // WRITES_PER_READ // (VERIFY + VERIFY // 4))

        stop_at = time.perf_counter() + seconds * OVERRUN
        closed_loops(
            dep, [[("query", q) for q in inputs.take(16)] for _ in range(dep.callers)],
            [Samples() for _ in range(dep.callers)], stop_at,
        )
        dep.query_batch(inputs.take(BATCH))
        # Set-up garbage is collected now and the survivors moved out of
        # the collector's sight, so no full collection over the
        # collection's object graph lands inside a timed phase.
        gc.collect()
        gc.freeze()

        # -- quality of the approximate variant, on the collection as set up
        # (later, what the writes added is searched exactly and recall
        # would mostly tell where a seed's neighbours happen to sit)
        hits = 0
        oracle = dep.oracle()
        for q in recall_queries:
            tally.attempted += 1
            got = dep.query(q, 0, "approximate")
            want = oracle.query(q, k=K, method="naive")
            hits += len(set(got.indices()) & set(want.indices()))

        # -- read rounds: main loop(s) | batches of 64 | checkpoints
        callers = [Samples() for _ in range(dep.callers)]
        batch_s, batch_answers, checkpoint_s = [], [], []
        for r in range(plan.read_rounds):
            closed_loops(dep, [rounds[r] for rounds in main_rounds], callers, stop_at, oracle_every)
            for queries in batch_rounds[r]:
                tally.attempted += len(queries)
                start = time.perf_counter()
                try:
                    results = dep.query_batch(queries)
                except (ReproError, OSError) as exc:
                    tally.fail(f"batch: {type(exc).__name__}: {exc}", len(queries))
                    continue
                batch_s.append(time.perf_counter() - start)
                if not batch_answers and not mixed:
                    batch_answers = list(zip(queries, results))
                for result in results:
                    checked(result, tally, "batch")
            tally.attempted += CHECKPOINTS
            checkpoint_s += [timed(dep.checkpoint) for _ in range(CHECKPOINTS)]
        pairs = []
        for samples in callers:
            tally.merge(samples.tally)
            pairs.extend(samples.answers)
        notes["truncated"] = any(s.truncated for s in callers)
        query_s = [d for s in callers for d in s.durations("query")]
        dep.after_main()

        # -- exactness: sampled answers against the naive oracle
        if mixed:  # now that the layout has settled
            queries = inputs.take(BATCH)
            tally.attempted += BATCH
            batch_answers = list(zip(queries, dep.query_batch(queries)))
        notes["verified_main"] = verify_answers(dep, pairs, tally, "query")
        notes["verified_batch"] = verify_answers(dep, batch_answers, tally, "batch", 32)

        # -- write rounds: inserts | checkpoints | un-checkpointed tail | restart
        writer = Samples()
        recovery_s = []
        stored_ratio = 0.0
        for r in range(plan.write_rounds):
            closed_loops(dep, [write_rounds[r]], [writer], stop_at)
            tally.attempted += CHECKPOINTS
            checkpoint_s += [timed(dep.checkpoint) for _ in range(CHECKPOINTS)]
            held = len(inputs.base) + len(callers[0].durations("insert")) \
                + len(writer.durations("insert"))
            stored_ratio = dep.stored_bytes() / (held * LENGTH * 8)
            closed_loops(dep, [tail_rounds[r]], [writer], stop_at)
            tally.attempted += 1
            took, problems = dep.recover()
            recovery_s.append(took)
            for problem in problems:
                tally.fail(f"restart: {problem}")
        tally.merge(writer.tally)
        notes["truncated"] = notes["truncated"] or writer.truncated
        if mixed:
            insert_s = callers[0].durations("insert")
            insert_p50 = callers[0].typical("insert", plan.read_rounds)
            inserts_per_s = callers[0].rate("insert", plan.read_rounds)
            notes["maintenance"] = dep.db.maintenance_status()
            notes["seals"] = dep.db.rebuild_count
            require_maintenance_cycles(notes, tally, quick)
        else:
            insert_s = writer.durations("insert")
            insert_p50 = writer.typical("insert", plan.write_rounds)
            inserts_per_s = writer.rate("insert", plan.write_rounds)
            after = [(q, dep.query(q, 0)) for q in after_write_queries]
            tally.attempted += len(after)
            notes["verified_after_writes"] = verify_answers(
                dep, after, tally, "query after writes"
            )
    finally:
        gc.unfreeze()
        dep.teardown()

    metrics = {
        "setup_s": median(setup_s),
        "query_p50_ms": median([s.typical("query", plan.read_rounds) for s in callers]) * 1e3,
        "queries_per_s": sum(s.rate("query", plan.read_rounds) for s in callers),
        "batch_queries_per_s": BATCH / quiet_quartile(batch_s),
        "insert_p50_us": insert_p50 * 1e6,
        "inserts_per_s": inserts_per_s,
        "checkpoint_s": quiet_quartile(checkpoint_s),
        "recovery_s": quiet_quartile(recovery_s),
        "stored_bytes_per_user_byte": stored_ratio,
        "recall_at_10": hits / (K * len(recall_queries)),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes["samples"] = {
        "query": len(query_s), "batch": len(batch_s), "insert": len(insert_s),
        "setup": len(setup_s), "checkpoint": len(checkpoint_s),
        "recovery": len(recovery_s),
    }
    for q in (50, 90, 99):
        notes[f"query_p{q}_ms"] = percentile(query_s, q) * 1e3
    notes["query_max_ms"] = max(query_s) * 1e3
    return {"metrics": metrics, "tally": tally, "notes": notes}


def require_maintenance_cycles(notes: dict, tally: Tally, quick: bool) -> None:
    """ingest_mixed only counts once background work has cycled enough."""
    seals, merges = (4, 1) if quick else (20, 5)
    if notes["seals"] < seals:
        tally.fail(f"only {notes['seals']} segments sealed, {seals} required")
    if notes["maintenance"]["merges"] < merges:
        tally.fail(f"only {notes['maintenance']['merges']} background merges, {merges} required")
