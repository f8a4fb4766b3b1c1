"""The traced run: per-layer metrics measured from outside the program.

Nothing in the program is edited.  Each layer is timed by calling its
public entry point with the input of a real request (a *probe*), and
its counters are read where the program already publishes them
(``SearchStats``, ``result_cache.stats()``, the metrics registry,
``maintenance_status()``, file sizes).

The main phase alternates traced and untraced requests in one closed
loop, so both see the same conditions and their difference is the
recorder's overhead.  Every tenth request is then replayed layer by
layer as child spans of its root span; :func:`harness.spans.waterfall`
turns those into one waterfall per workload.  End-to-end numbers never
come from here.

A per-layer metric of a layer that is not on a workload's path reads 0
there: that layer does no work on that workload.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

from repro import STS3Database
from repro.bench import run_traced as run_program_tracer
from repro.core.grid import Bound
from repro.core.persistence import default_wal_dir, load_database, save_database
from repro.core.segment import grid_for_bound
from repro.core.wal import WriteAheadLog
from repro.exceptions import ReproError
from repro.obs import get_registry
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    pack_message,
    result_from_wire,
    result_to_wire,
    unpack_payload,
)

from .deployments import DEPLOYMENTS, K, METHOD, PARAMS, tree_bytes
from .inputs import LENGTH, make_inputs
from .lifecycle import (
    BATCH,
    OVERRUN,
    REF_SECONDS,
    Samples,
    Tally,
    build_ops,
    checked,
    closed_loops,
    plan_for,
    pool_size,
    run_callers,
    setup_repeatedly,
    timed,
    verify_answers,
)
from .spans import SpanRecorder, waterfall
from .spec import load_spec, metric_table
from .stats import median, percentile

__all__ = ["run_traced"]

#: a traced run does this share of the untraced run's operations.
TRACED_SHARE = 0.5
#: every Nth request is replayed layer by layer.
REPLAY_EVERY = 10
#: queries per method pass (pruning / approximate / naive / auto) at the
#: reference run length.
METHOD_PASS = 150
#: bytes of the length prefix pack_message puts before a frame's payload.
_PREFIX = 4
_KERNELS = ("sparse", "dense", "bitset")


def counter_total(name: str) -> float:
    """A registry counter summed over its label sets (0 if never touched)."""
    counters = get_registry().snapshot()["counters"]
    return sum(v for key, v in counters.items() if key.split("{")[0] == name)


class CounterWatch:
    """How much some registry counters have grown since the watch began."""

    def __init__(self, *names: str):
        self.start = {name: counter_total(name) for name in names}

    def grown(self, name: str) -> float:
        return counter_total(name) - self.start[name]


def exposition_total(text: str, name: str) -> float:
    """The same sum, read from a Prometheus exposition (a server's /metrics)."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.split("{")[0].split(" ")[0] == name
    )


class TracedRun:
    """One traced run: the deployment, the spans, the samples, the layers."""

    def __init__(self, workload: str, seed: int, seconds: float, quick: bool, scratch: Path):
        self.workload = workload
        self.seconds = seconds
        self.quick = quick
        self.scratch = scratch
        self.plan = plan_for(workload, seconds * TRACED_SHARE, quick)
        self.pass_size = 16 if quick else max(32, round(METHOD_PASS * seconds / REF_SECONDS))
        self.inputs = make_inputs(
            self.plan.n_series, pool_size(self.plan) + self.pass_size + 1024 + 256, seed
        )
        self.dep = DEPLOYMENTS[workload](self.inputs, scratch)
        self.mixed = workload == "ingest_mixed"
        self.rec = SpanRecorder()
        self.samples: dict[str, list[float]] = {}
        self.tally = Tally()
        self.layers = {name: 0.0 for name in metric_table(load_spec(), "per_layer")}
        self.notes: dict = {}
        self.falls: dict[str, dict] = {}
        #: replays a several-caller workload postpones until its callers rest
        self.deferred: list[tuple] = []
        #: ids of series already sent: a repeat is a result-cache hit
        self.sent: set[int] = set()
        #: each shard's partition in-process (sharded_knn) / a log to replay
        #: appends into (ingest_mixed) / segment count after each insert
        self.halves: list[STS3Database] = []
        self.replay_wal: WriteAheadLog | None = None
        self.live_segments: list[int] = []
        #: durations of every main-phase query, traced or not
        self.queries_s: list[float] = []
        self.inserts_s: list[float] = []
        self.cache_stats: dict = {}

    # -- sample bookkeeping ---------------------------------------------
    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed_sample(self, name: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.sample(name, time.perf_counter() - start)
        return out

    def sample_median(self, name: str, scale: float = 1.0) -> float:
        values = self.samples.get(name)
        return median(values) * scale if values else 0.0

    def sample_mean(self, name: str) -> float:
        values = self.samples.get(name)
        return sum(values) / len(values) if values else 0.0

    def spans_named(self, name: str) -> list[float]:
        return [s.duration for s in self.rec.spans if s.name == name]

    # -- replays: one request's input through each layer on its path ------
    def replay_engine(self, db: STS3Database, series, request: int, parent: int,
                      cached: bool = False) -> None:
        """database -> planner -> (set representation, inverted index)."""
        rec = self.rec
        with rec.span("core.database", request, parent) as database:
            db.query(series, k=K, method=METHOD)
        if cached:
            return  # the result cache answered; no layer below it ran
        with rec.span("core.planner", request, database) as planner:
            db.planner.execute(series, K, METHOD, buffer=db.buffer)
        self.sample("segments", len(db.catalog.segments))
        with rec.span("core.setrep", request, planner):
            query_set = db.transform_query(series)
        with rec.span("core.indexed", request, planner):
            result = db.indexed_searcher().query(query_set, K)
        self.sample("indexed.candidates", result.stats.candidates)
        self.sample("indexed.exact", result.stats.exact_computations)

    def replay_frames(self, series, result, request: int, parent: int,
                      reply_reads: int = 1) -> None:
        """The wire work of one request and its reply, function by function."""
        header = {
            "v": PROTOCOL_VERSION, "id": request, "client": "bench", "op": "query",
            "k": K, "method": METHOD, "scale": None, "max_scale": None,
            "deadline_ms": None,
        }
        with self.rec.span("serve.protocol", request, parent):
            frame = self.timed_sample("pack", pack_message, header, [series])
            self.timed_sample("unpack", unpack_payload, frame[_PREFIX:])
            wire = self.timed_sample("to_wire", result_to_wire, result)
            reply = pack_message({"id": request, "status": "ok", "result": wire})
            for _ in range(reply_reads):
                unpack_payload(reply[_PREFIX:])
            self.timed_sample("from_wire", result_from_wire, wire)
        self.sample("request_bytes", len(frame))
        self.sample("response_bytes", len(reply))

    def replay_served(self, series, result, request: int, root: int, cached: bool) -> None:
        dep = self.dep
        self.replay_frames(series, result, request, root)
        # Reproduce what the real request met: a cold query missed the
        # result cache, so its replay runs with the cache set aside.
        cache = dep.db.result_cache
        if not cached:
            dep.db.result_cache = None
        try:
            with self.rec.span("serve.service", request, root) as service:
                dep.server.submit(
                    dep.server.service.query(series, k=K, method=METHOD)
                ).result(timeout=30)
            self.replay_engine(dep.db, series, request, service, cached)
        finally:
            dep.db.result_cache = cache

    def replay_sharded(self, series, result, request: int, root: int) -> None:
        dep = self.dep
        # Engine floor: the slower of the two partitions, queried in-process.
        slowest = (0.0, 0.0)
        for half in self.halves:
            start = time.perf_counter()
            half.query(series, k=K, method=METHOD)
            end = time.perf_counter()
            if end - start > slowest[1] - slowest[0]:
                slowest = (start, end)
        self.rec.add("core.shard.engine_floor", request, root, *slowest)
        self.replay_frames(series, result, request, root, reply_reads=dep.shards)
        # status() talks to the shards one after the other; a query's
        # scatter and gather overlap them, so one round trip is on its path.
        start = time.perf_counter()
        dep.sdb.status()
        round_trip = (time.perf_counter() - start) / dep.shards
        self.rec.add("core.rpc", request, root, start, start + round_trip)

    def replay(self, kind: str, series, result, request: int, root: int, cached: bool) -> None:
        if kind == "insert":
            with self.rec.span("core.wal", request, root):
                self.replay_wal.append_series("insert", series)
        elif self.workload == "served_knn":
            self.replay_served(series, result, request, root, cached)
        elif self.workload == "sharded_knn":
            self.replay_sharded(series, result, request, root)
        else:
            self.replay_engine(self.dep.oracle(), series, request, root)

    # -- the traced closed loop ---------------------------------------------
    def traced_loop(self, caller: int, ops, stop_at: float) -> tuple[Tally, list]:
        """Alternate untraced and traced requests; replay every tenth of a kind."""
        dep, rec, tally = self.dep, self.rec, Tally()
        answers = []
        seen = {"query": 0, "insert": 0}
        clock = time.perf_counter
        for i, (kind, series) in enumerate(ops):
            tally.attempted += 1
            seen[kind] += 1
            request = caller * 1_000_000 + i
            cached = id(series) in self.sent
            self.sent.add(id(series))
            result = root = None
            generation = dep.oracle().catalog.generation if self.mixed else None
            try:
                if seen[kind] % 2:
                    with rec.span(f"end_to_end.{kind}", request) as root:
                        result = dep.query(series, caller) if kind == "query" else dep.insert(series)
                else:
                    start = clock()
                    result = dep.query(series, caller) if kind == "query" else dep.insert(series)
                    self.sample(f"untraced.{kind}", clock() - start)
            except (ReproError, OSError) as exc:
                tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            if kind == "insert":
                self.live_segments.append(len(dep.oracle().catalog.segments))
            elif checked(result, tally, "query") and not self.mixed:
                answers.append((series, result))
            if seen[kind] % REPLAY_EVERY == 1:
                if self.mixed and kind == "query":
                    # the layout moves under the queries: the oracle answers
                    # now, and the pair counts if no merge published meanwhile
                    want = dep.oracle().query(series, k=K, method="naive")
                    if dep.oracle().catalog.generation == generation:
                        answers.append((series, result, want))
                item = (kind, series, result, request, root, cached)
                if dep.callers == 1:
                    self.replay(*item)
                else:
                    self.deferred.append(item)
            if clock() > stop_at:
                break
        return tally, answers

    def main_phase(self, ops_per_caller, stop_at: float) -> None:
        """One traced loop per caller, then the replays they postponed."""
        outcomes: list = [None] * len(ops_per_caller)

        def work(caller: int) -> None:
            outcomes[caller] = self.traced_loop(caller, ops_per_caller[caller], stop_at)

        run_callers(work, len(ops_per_caller))
        if self.workload == "served_knn":  # before the replays add their own lookups
            self.cache_stats = self.dep.db.result_cache.stats()
        for item in self.deferred:
            self.replay(*item)
        self.deferred = []
        answers = []
        for tally, pairs in outcomes:
            self.tally.merge(tally)
            answers.extend(pairs)
        self.notes["verified_main"] = verify_answers(self.dep, answers, self.tally, "query")

        plain = self.samples.get("untraced.query", [])
        roots = self.spans_named("end_to_end.query")
        self.queries_s = plain + roots
        self.inserts_s = self.samples.get("untraced.insert", []) + self.spans_named("end_to_end.insert")
        self.layers["harness.span_overhead_pct"] = (median(roots) / median(plain) - 1.0) * 100.0
        self.falls["query"] = waterfall(self.rec.spans, "end_to_end.query")
        if self.mixed:
            self.falls["insert"] = waterfall(self.rec.spans, "end_to_end.insert")
        self.notes["samples"] = {
            "queries": len(self.queries_s), "traced": len(roots),
            "replayed": self.falls["query"]["sampled"],
        }

    # -- layers read off the waterfall and the replays' counters ------------
    def engine_layers(self) -> None:
        layers, fall = self.layers, self.falls["query"]["layers"]
        layers["core.setrep.transform_us"] = fall.get("core.setrep", 0.0) * 1e6
        layers["core.indexed.query_ms"] = fall.get("core.indexed", 0.0) * 1e3
        layers["core.indexed.candidates_per_query"] = self.sample_mean("indexed.candidates")
        layers["core.indexed.exact_computations_per_query"] = self.sample_mean("indexed.exact")
        layers["core.planner.overhead_ms"] = fall.get("core.planner", 0.0) * 1e3
        layers["core.planner.segments_per_query"] = self.sample_mean("segments")
        # direct calls on the same objects: the end-to-end call itself
        # where the caller holds the database, the replays where a
        # server stands in between
        direct = self.queries_s if self.dep.callers == 1 else self.spans_named("core.database")
        if self.workload != "sharded_knn":
            layers["core.database.query_ms"] = median(direct) * 1e3
            layers["core.database.query_p90_ms"] = percentile(direct, 90) * 1e3
            layers["core.database.query_p99_ms"] = percentile(direct, 99) * 1e3

    def batch_phase(self, batches) -> list[float]:
        registry = get_registry()
        before = {
            k: registry.counter("sts3_kernel_selected_total").value(kernel=k) for k in _KERNELS
        }
        batch_s = []
        for queries in batches:
            self.tally.attempted += len(queries)
            start = time.perf_counter()
            results = self.dep.query_batch(queries)
            batch_s.append(time.perf_counter() - start)
            for result in results:
                checked(result, self.tally, "batch")
        self.layers["core.batch.ms_per_query"] = median(batch_s) / BATCH * 1e3
        picked = {
            k: registry.counter("sts3_kernel_selected_total").value(kernel=k) - v
            for k, v in before.items()
        }
        if any(picked.values()):  # shard workers count in their own processes
            most = max(picked, key=picked.get)
            self.layers["core.batch.kernel"] = float(_KERNELS.index(most))
            self.notes["batch_kernel"] = most
        return batch_s

    # -- passes and stand-alone probes ----------------------------------------
    def method_passes(self, db: STS3Database, queries) -> None:
        """Short passes of the other search variants over the same collection."""
        names = {
            "pruning": "core.pruning.query_ms", "approximate": "core.approximate.query_ms",
            "naive": "core.naive.query_ms", "auto": "core.planner.auto_query_ms",
        }
        for method, name in names.items():
            db.query(queries[0], k=K, method=method)  # builds the variant's structures
            seconds, candidates, pruned, exact = [], 0, 0, 0
            for q in queries:
                start = time.perf_counter()
                result = db.query(q, k=K, method=method)
                seconds.append(time.perf_counter() - start)
                candidates += result.stats.candidates
                pruned += result.stats.pruned
                exact += result.stats.exact_computations
            self.tally.attempted += len(queries)
            self.layers[name] = median(seconds) * 1e3
            if method == "pruning":
                self.layers["core.pruning.pruned_ratio"] = pruned / candidates
            if method == "approximate":
                self.layers["core.approximate.exact_computations_per_query"] = exact / len(queries)

    def program_tracer_pass(self, db: STS3Database, queries) -> None:
        """The program's own Tracer: what it costs, and its per-stage split."""
        def loop():
            for q in queries:
                db.query(q, k=K, method=METHOD)

        plain, traced, stages = [], [], {}
        for _ in range(3):
            plain.append(timed(loop))
            start = time.perf_counter()
            _, stages = run_program_tracer(loop)
            traced.append(time.perf_counter() - start)
        self.layers["obs.trace_overhead_pct"] = (median(traced) / median(plain) - 1.0) * 100.0
        for stage in ("transform", "filter", "refine", "select_topk", "plan", "merge"):
            self.layers[f"obs.stage.{stage}_ms"] = stages.get(stage, 0.0) / len(queries) * 1e3

    def wal_probe(self, series) -> None:
        """A stand-alone log on a scratch directory: append and sync cost."""
        appends, syncs = [], []
        with WriteAheadLog(self.scratch / "probe.wal") as wal:
            for i, s in enumerate(series):
                start = time.perf_counter()
                wal.append_series("insert", s)
                appends.append(time.perf_counter() - start)
                if i % 64 == 63:
                    syncs.append(timed(wal.sync))
        self.layers["core.wal.append_us"] = median(appends) * 1e6
        self.layers["core.wal.sync_ms"] = median(syncs) * 1e3

    def persistence_probe(self, db: STS3Database) -> None:
        """save, and open mapped and eager, of the workload's own database."""
        archive = self.scratch / "probe.sts3"
        self.layers["core.persistence.save_s"] = median(
            [timed(lambda: save_database(db, archive, checkpoint_wal=False)) for _ in range(3)]
        )
        for mmap, name in ((True, "open_mmap_ms"), (False, "open_eager_ms")):
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                opened = load_database(archive, mmap=mmap)
                seconds.append(time.perf_counter() - start)
                opened.close()
            self.layers[f"core.persistence.{name}"] = median(seconds) * 1e3
        self.layers["core.persistence.archive_bytes_per_user_byte"] = (
            tree_bytes(archive) / (len(db) * LENGTH * 8)
        )
        archive.unlink()

    def shard_halves(self) -> list[STS3Database]:
        """Each shard's partition as an in-process database under the shared grid."""
        base = self.inputs.base
        grid = grid_for_bound(Bound.of_database(base), PARAMS["sigma"], PARAMS["epsilon"])
        halves = [
            STS3Database.from_segments(
                [([base[i] for i in ids], grid)], value_padding=0.0, buffer_capacity=32,
                default_scale=6, default_max_scale=4, **PARAMS,
            )
            for ids in self.dep.sdb.ring.partition(range(len(base)))
        ]
        for half in halves:
            half.query(self.dep.probe, k=K, method=METHOD)  # build its index now
        return halves

    def frame_layers(self) -> None:
        layers = self.layers
        layers["serve.protocol.pack_us"] = self.sample_median("pack", 1e6)
        layers["serve.protocol.unpack_us"] = self.sample_median("unpack", 1e6)
        layers["serve.protocol.result_to_wire_us"] = self.sample_median("to_wire", 1e6)
        layers["serve.protocol.result_from_wire_us"] = self.sample_median("from_wire", 1e6)
        layers["serve.protocol.request_bytes"] = self.sample_median("request_bytes")
        layers["serve.protocol.response_bytes"] = self.sample_median("response_bytes")

    def served_layers(self) -> None:
        dep, layers, fall = self.dep, self.layers, self.falls["query"]
        self.frame_layers()
        client = dep.clients[0]
        layers["serve.server.ping_p50_us"] = median(
            [timed(client.ping) for _ in range(200)]
        ) * 1e6
        layers["serve.service.query_p50_ms"] = median(self.spans_named("serve.service")) * 1e3
        # the service's self time: admission, the coalescing window it
        # waits out for company, and the hop to the engine thread
        layers["serve.service.coalesce_wait_ms"] = fall["layers"].get("serve.service", 0.0) * 1e3
        text = client.metrics()
        windows = exposition_total(text, "sts3_server_window_queries_count")
        if windows:
            layers["serve.service.window_mean_queries"] = (
                exposition_total(text, "sts3_server_window_queries_sum") / windows
            )
        layers["serve.service.rejected"] = exposition_total(text, "sts3_server_rejected_total")
        layers["serve.query_p90_ms"] = percentile(self.queries_s, 90) * 1e3
        layers["serve.query_p99_ms"] = percentile(self.queries_s, 99) * 1e3
        layers["serve.unattributed_ms"] = fall["unattributed"] * 1e3
        stats = self.cache_stats
        layers["core.cache.hit_ratio"] = stats["hits"] / max(1, stats["hits"] + stats["misses"])
        layers["core.cache.evictions"] = float(stats["evictions"])

    def sharded_layers(self, batch_s, batches) -> None:
        layers, fall = self.layers, self.falls["query"]
        self.frame_layers()
        layers["core.rpc.status_roundtrip_us"] = median(self.spans_named("core.rpc")) * 1e6
        floor = median(self.spans_named("core.shard.engine_floor"))
        layers["core.shard.engine_floor_ms"] = floor * 1e3
        layers["core.shard.overhead_ms"] = (fall["end_to_end"] - floor) * 1e3
        floor_batch = median([
            max(timed(lambda: half.query_batch(queries, k=K, method=METHOD))
                for half in self.halves)
            for queries in batches[:4]
        ])
        layers["core.shard.batch_overhead_ms_per_query"] = (
            (median(batch_s) - floor_batch) / BATCH * 1e3
        )
        layers["core.shard.query_p90_ms"] = percentile(self.queries_s, 90) * 1e3
        layers["core.shard.query_p99_ms"] = percentile(self.queries_s, 99) * 1e3

    def ingest_layers(self, pass_queries) -> None:
        dep, layers = self.dep, self.layers
        layers["core.planner.auto_query_ms"] = median(
            [timed(lambda: dep.db.query(q, k=K, method="auto")) for q in pass_queries[:32]]
        ) * 1e3
        layers["core.catalog.live_segments_max"] = float(max(self.live_segments))
        status = dep.db.maintenance_status()
        layers["core.maintenance.merges"] = float(status["merges"])
        layers["core.maintenance.checkpoints"] = float(status["checkpoints"])
        layers["core.maintenance.foreground_stall_max_ms"] = max(self.inserts_s) * 1e3
        self.notes["maintenance"] = status

    def wal_dirs(self) -> list[Path]:
        if self.mixed:
            return [default_wal_dir(self.dep.archive)]
        if self.workload == "sharded_knn":
            return [self.dep.sdb.shard_wal_dir(i) for i in range(self.dep.shards)]
        return []

    def write_phase(self, writes, stop_at: float) -> None:
        """Inserts through the front door: their tails, and the log they leave."""
        dep, layers = self.dep, self.layers
        if self.mixed:  # its inserts ran beside the reads, in the main phase
            layers["core.database.insert_p99_us"] = percentile(self.inserts_s, 99) * 1e6
            layers["core.database.insert_max_ms"] = max(self.inserts_s) * 1e3
        else:
            samples = Samples()
            closed_loops(dep, [[("insert", s) for s in writes]], [samples], stop_at)
            self.tally.merge(samples.tally)
            self.inserts_s = samples.durations("insert")
            layers["core.catalog.live_segments_max"] = 1.0
            if self.workload == "direct_knn":
                layers["core.database.insert_p99_us"] = percentile(self.inserts_s, 99) * 1e6
                layers["core.database.insert_max_ms"] = max(self.inserts_s) * 1e3
        logged = sum(tree_bytes(d) for d in self.wal_dirs() if d.exists())
        layers["core.wal.bytes_per_user_byte"] = logged / (len(self.inserts_s) * LENGTH * 8)

    def restart_phase(self, tail, over_run: CounterWatch) -> None:
        """One checkpoint, an un-checkpointed tail where a log keeps it, one restart."""
        dep, layers = self.dep, self.layers
        self.tally.attempted += 2
        checkpoint_s = timed(dep.checkpoint)
        if self.workload != "direct_knn":  # which has the stand-alone probe instead
            layers["core.persistence.save_s"] = checkpoint_s
            held = len(self.inputs.base) + len(self.inserts_s)
            layers["core.persistence.archive_bytes_per_user_byte"] = (
                dep.stored_bytes() / (held * LENGTH * 8)
            )
        for series in tail:
            dep.insert(series)
        took, problems = dep.recover()
        for problem in problems:
            self.tally.fail(f"restart: {problem}")
        if self.workload == "served_knn":
            layers["core.persistence.open_mmap_ms"] = median([
                timed(lambda: load_database(dep.archive, mmap=True).close())
                for _ in range(3)
            ]) * 1e3
        if self.workload == "sharded_knn":
            layers["core.shard.spawn_s"] = took
        replayed = over_run.grown("sts3_wal_applied_records_total")
        if replayed:
            layers["core.persistence.replay_records_per_s"] = replayed / took
        layers["core.shard.restarts"] = over_run.grown("sts3_shard_restarts_total")

    # -- the run ----------------------------------------------------------
    def run(self) -> dict:
        dep, plan, inputs, layers = self.dep, self.plan, self.inputs, self.layers
        over_run = CounterWatch("sts3_shard_restarts_total", "sts3_wal_applied_records_total")
        try:
            setup_repeatedly(dep, self.scratch, 1, self.tally)
            main_ops = build_ops(self.workload, inputs, plan, dep.callers)
            batches = [inputs.take(BATCH) for _ in range(max(4, plan.batches // 2))]
            writes = [] if self.mixed else inputs.take_in_bound(plan.inserts // 2)
            tail = inputs.take_in_bound(plan.tail) if dep.has_wal else []
            pass_queries = inputs.take(self.pass_size)
            stop_at = time.perf_counter() + self.seconds * OVERRUN
            closed_loops(
                dep, [[("query", q) for q in inputs.take(16)] for _ in range(dep.callers)],
                [Samples() for _ in range(dep.callers)], stop_at,
            )
            dep.query_batch(inputs.take(BATCH))
            if self.workload == "sharded_knn":
                self.halves = self.shard_halves()
            if self.mixed:
                # never syncs on its own, so the fsyncs counted over the
                # main phase are the database's
                self.replay_wal = WriteAheadLog(self.scratch / "replay.wal", fsync_batch=1 << 30)
            gc.collect()
            gc.freeze()

            over_main = CounterWatch("sts3_wal_fsyncs_total", "sts3_segments_sealed_total")
            self.main_phase(main_ops, stop_at)
            layers["core.wal.fsyncs"] = over_main.grown("sts3_wal_fsyncs_total")
            layers["core.catalog.seals"] = over_main.grown("sts3_segments_sealed_total")
            dep.after_main()
            self.engine_layers()
            batch_s = self.batch_phase(batches)
            if self.workload == "direct_knn":
                self.method_passes(dep.db, pass_queries)
                self.program_tracer_pass(dep.db, pass_queries)
                self.persistence_probe(dep.db)
            elif self.workload == "served_knn":
                self.served_layers()
            elif self.workload == "sharded_knn":
                self.sharded_layers(batch_s, batches)
            else:
                self.ingest_layers(pass_queries)
            if dep.has_wal:
                self.wal_probe(inputs.take(128 if self.quick else 1024))

            self.write_phase(writes, stop_at)
            self.restart_phase(tail, over_run)
        finally:
            gc.unfreeze()
            if self.replay_wal is not None:
                self.replay_wal.close()
            for half in self.halves:
                half.close()
            dep.teardown()
        return {
            "metrics": layers, "tally": self.tally, "notes": self.notes,
            "waterfalls": self.falls, "spans": self.rec.to_json(),
        }


def run_traced(workload: str, seed: int, seconds: float, quick: bool, scratch: Path) -> dict:
    """One traced run of ``workload``; every per-layer metric, 0 where off-path."""
    return TracedRun(workload, seed, seconds, quick, scratch).run()
