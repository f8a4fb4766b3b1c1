"""Tests for the ``sts3`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def ucr_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(12):
        label = i % 2
        values = ",".join(f"{v:.4f}" for v in rng.normal(size=32))
        lines.append(f"{label},{values}")
    path = tmp_path / "toy"
    path.write_text("\n".join(lines))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.series == 200
        assert args.k == 3

    def test_query_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "f", "--method", "magic"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "STS3" in out or "sts3" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "CBF" in out
        assert "NIFE" in out

    def test_demo(self, capsys):
        assert main(["demo", "--series", "30", "--length", "64", "--k", "2"]) == 0
        out = capsys.readouterr().out
        for method in ("naive", "index", "pruning", "approximate"):
            assert method in out

    def test_query(self, ucr_file, capsys):
        assert main(["query", str(ucr_file), "--k", "3", "--sigma", "2"]) == 0
        out = capsys.readouterr().out
        assert "Jaccard" in out
        assert out.count("#") >= 3

    def test_query_default_method_prints_the_exact_neighbours(
        self, ucr_file, capsys
    ):
        base = ["query", str(ucr_file), "--k", "4", "--sigma", "2"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main(base + ["--method", "naive"]) == 0
        naive = capsys.readouterr().out
        rows = [line for line in default.splitlines() if "#" in line]
        assert len(rows) >= 4
        assert rows == [line for line in naive.splitlines() if "#" in line]

    def test_query_bad_index(self, ucr_file, capsys):
        assert main(["query", str(ucr_file), "--query-index", "99"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_query_missing_file(self, tmp_path):
        from repro.exceptions import DatasetError

        with pytest.raises(DatasetError):
            main(["query", str(tmp_path / "nope")])

    def test_batch(self, ucr_file, capsys):
        assert main(["batch", str(ucr_file), "--queries", "4", "--k", "2",
                     "--sigma", "2"]) == 0
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "aggregate:" in out
        assert out.count("query ") >= 4

    def test_batch_too_many_queries(self, ucr_file, capsys):
        assert main(["batch", str(ucr_file), "--queries", "99"]) == 2
        assert "--queries" in capsys.readouterr().err

    def test_query_trace(self, ucr_file, capsys):
        assert main(["query", str(ucr_file), "--k", "2", "--sigma", "2",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace (ms, nested):" in out
        for stage in ("query", "transform", "refine", "select_topk"):
            assert stage in out
        assert "Jaccard" in out  # the normal result still prints

    def test_query_trace_restores_noop(self, ucr_file, capsys):
        from repro.obs import NOOP, get_tracer

        main(["query", str(ucr_file), "--trace"])
        assert get_tracer() is NOOP

    def test_query_profile(self, ucr_file, capsys):
        assert main(["query", str(ucr_file), "--k", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "function calls" in out  # the pstats report

    def test_batch_metrics_json_file(self, ucr_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        assert main(["batch", str(ucr_file), "--queries", "4", "--k", "2",
                     "--sigma", "2", "--metrics-json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["command"] == "batch"
        assert report["queries"] == 4
        assert report["wall_seconds"] > 0
        stages = report["stages_seconds"]
        for stage in ("transform", "filter", "refine", "select_topk", "merge"):
            assert stage in stages
        # per-stage timings account for the bulk of wall-clock
        assert 0 < report["stage_coverage"] <= 1.1
        counters = report["metrics"]["counters"]
        assert counters['sts3_batch_queries_total{method="index"}'] >= 4.0

    def test_batch_default_method_runs_the_batch_engine(
        self, ucr_file, tmp_path, capsys
    ):
        import json

        from repro.obs import get_registry

        def kernels_selected(counters):
            return sum(
                value for key, value in counters.items()
                if key.startswith("sts3_kernel_selected_total")
            )

        before = kernels_selected(get_registry().snapshot()["counters"])
        out_path = tmp_path / "metrics.json"
        assert main(["batch", str(ucr_file), "--queries", "4", "--k", "2",
                     "--sigma", "2", "--metrics-json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["method"] == "auto"
        assert kernels_selected(report["metrics"]["counters"]) > before

    def test_batch_metrics_json_stdout(self, ucr_file, capsys):
        import json

        assert main(["batch", str(ucr_file), "--queries", "3", "--k", "2",
                     "--sigma", "2", "--metrics-json", "-"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        report = json.loads(payload)
        assert report["queries"] == 3
        assert "aggregate_stats" in report

    def test_batch_trace(self, ucr_file, capsys):
        assert main(["batch", str(ucr_file), "--queries", "3", "--k", "2",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace (ms, nested):" in out
        assert "query_batch" in out

    def test_join(self, ucr_file, capsys):
        assert main(["join", str(ucr_file), "--threshold", "0.2", "--sigma", "2"]) == 0
        out = capsys.readouterr().out
        assert "pairs at J >=" in out

    def test_join_strict_threshold_finds_nothing(self, ucr_file, capsys):
        assert main(["join", str(ucr_file), "--threshold", "0.999"]) == 0
        assert "0 pairs" in capsys.readouterr().out

    def test_inspect(self, tmp_path, capsys):
        from repro import STS3Database
        from repro.core import save_database

        rng = np.random.default_rng(5)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(12)],
            sigma=2, epsilon=0.5, normalize=False, buffer_capacity=2,
        )
        spiked = rng.normal(size=32)
        spiked[0] = 50.0
        db.insert(spiked)
        db.insert(spiked + 10.0)  # fills the buffer: seals a delta segment
        path = tmp_path / "db.npz"
        save_database(db, path)

        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "14 series in 2 segment(s)" in out
        assert "grid (rows x cols)" in out
        # one row per segment, offsets 0 and 12 (trailing WAL and
        # maintenance status lines excluded)
        body = out[out.index("grid (rows x cols)"):].splitlines()[1:]
        rows = [
            line.split() for line in body
            if line.strip()
            and not line.startswith(("WAL", "QUARANTINED", "maintenance"))
        ]
        assert [r[1] for r in rows] == ["0", "12"]
        assert [r[2] for r in rows] == ["12", "2"]
        assert "WAL: none" in out
        assert "maintenance: 2 live segment(s)" in out

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.npz")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_inspect_mmap(self, tmp_path, capsys):
        from repro import STS3Database
        from repro.core import save_database

        rng = np.random.default_rng(5)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(12)],
            sigma=2, epsilon=0.5, normalize=False,
        )
        path = tmp_path / "db.sts3"
        save_database(db, path)
        assert main(["inspect", str(path), "--mmap"]) == 0
        out = capsys.readouterr().out
        assert "12 series in 1 segment(s)" in out


class TestBench:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.levers == "mmap,cache,combined"
        assert args.repeats == 3

    def test_bench_runs_and_prints_table(self, capsys):
        assert main(["bench", "--levers", "cache", "--series", "150",
                     "--queries", "4", "--length", "24", "--repeats", "1",
                     "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "lever" in out
        assert "speedup" in out
        assert "cache" in out
        assert "True" in out  # identical_neighbor_lists column

    def test_bench_json_output(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "bench.json"
        assert main(["bench", "--levers", "cache", "--series", "150",
                     "--queries", "4", "--length", "24", "--repeats", "1",
                     "--k", "2", "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert {record["phase"] for record in report} == {"cache"}
        assert all(record["identical_neighbor_lists"] for record in report)

    def test_bench_rejects_unknown_lever(self, capsys):
        assert main(["bench", "--levers", "warp"]) == 2
        assert "unknown lever" in capsys.readouterr().err


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.file is None
        assert args.port == 21335
        assert args.http_port == 21336
        assert args.max_coalesce == 64
        assert args.max_pending == 256
        assert args.rate is None
        assert args.cache_bytes == 0

    def test_serve_accepts_every_knob(self):
        args = build_parser().parse_args([
            "serve", "data.sts3", "--host", "0.0.0.0", "--port", "0",
            "--http-port", "-1", "--max-coalesce",
            "16", "--max-pending", "8", "--rate", "100", "--burst", "10",
            "--cache-bytes", "1048576",
        ])
        assert args.file == "data.sts3"
        assert args.http_port == -1
        assert args.rate == 100.0

    @pytest.mark.parametrize("argv", [
        ["serve", "--max-workers", "2"],
        ["bench", "--workers", "2"],
        ["serve", "--read-preference", "replica"],
        ["serve", "--max-replica-lag", "3"],
    ], ids=["serve", "bench", "read-preference", "max-replica-lag"])
    def test_thread_fanout_flags_are_gone(self, argv, capsys):
        # More cores come from ``--shards``, and followers serve no
        # reads; a removed flag must fail loudly rather than be
        # silently ignored.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_coalescing_timer_flag_is_gone(self, capsys):
        # A query that finds the engine idle runs at once; there is no
        # window to size, so the old flag must fail loudly.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--coalesce-ms", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_replicas_need_the_sharded_engine(self, monkeypatch, capsys):
        # Followers exist per shard; a plain database has none to give,
        # so the flag is refused instead of silently dropped.
        import repro.serve

        def never(*args, **kwargs):
            raise AssertionError("served without the requested followers")

        monkeypatch.setattr(repro.serve, "serve", never)
        argv = ["serve", "--replicas", "1", "--series", "50", "--length", "32"]
        assert main(argv) == 2
        assert "--replicas needs the sharded engine" in capsys.readouterr().err

    def test_serve_build_db_synthetic(self):
        from repro.cli import _serve_build_db

        args = build_parser().parse_args([
            "serve", "--series", "40", "--length", "32",
        ])
        db, source = _serve_build_db(args)
        assert len(db) == 40
        assert "synthetic" in source

    def test_serve_build_db_ucr(self, ucr_file):
        from repro.cli import _serve_build_db

        args = build_parser().parse_args(["serve", str(ucr_file)])
        db, source = _serve_build_db(args)
        assert len(db) == 12
        assert "UCR" in source

    def test_serve_build_db_archive(self, tmp_path):
        from repro.cli import _serve_build_db
        from repro.core import STS3Database, save_database

        rng = np.random.default_rng(3)
        db = STS3Database(
            [rng.normal(size=32) for _ in range(10)], sigma=2, epsilon=0.5
        )
        path = tmp_path / "db.sts3"
        save_database(db, path)
        args = build_parser().parse_args([
            "serve", str(path), "--cache-bytes", "65536",
        ])
        loaded, source = _serve_build_db(args)
        assert len(loaded) == 10
        assert "archive" in source
        assert loaded.result_cache is not None

    def test_serve_missing_file_errors(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "absent")]) == 2
        assert "cannot serve" in capsys.readouterr().err
