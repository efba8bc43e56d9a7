"""Tests for the command-line interface and report generation."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.common import ExperimentScale
from repro.experiments.report import EXPERIMENT_RUNNERS, generate_report


def nano_scale() -> ExperimentScale:
    return ExperimentScale(
        n_train=200,
        n_test=100,
        mc_trials=1,
        column_mc_trials=20,
        epochs=30,
        gammas=(0.0, 0.4),
        n_injections=2,
        seed=13,
    )


class TestParser:
    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.command == "report"
        assert args.experiments is None
        assert args.image_size == 14
        assert not args.paper_scale
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache
        assert args.run_log is None

    def test_report_runtime_flags(self):
        args = build_parser().parse_args([
            "report", "--jobs", "4", "--cache-dir", "/tmp/c",
            "--no-cache", "--run-log", "log.json",
        ])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache
        assert args.run_log == "log.json"

    def test_report_experiment_subset(self):
        args = build_parser().parse_args(
            ["report", "--experiments", "fig2", "fig3"]
        )
        assert args.experiments == ["fig2", "fig3"]

    def test_report_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["report", "--experiments", "fig99"]
            )

    def test_quickstart_options(self):
        args = build_parser().parse_args(
            ["quickstart", "--sigma", "0.4", "--image-size", "7"]
        )
        assert args.command == "quickstart"
        assert args.sigma == 0.4
        assert args.image_size == 7

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == ["src"]
        assert args.format == "text"

    def test_lint_options(self):
        args = build_parser().parse_args([
            "lint", "src", "tests", "--format", "json",
            "--select", "REP001,REP004",
            "--allow-unseeded", "examples/demo.py",
        ])
        assert args.paths == ["src", "tests"]
        assert args.format == "json"
        assert args.select == "REP001,REP004"
        assert args.allow_unseeded == ["examples/demo.py"]


class TestGenerateReport:
    def test_runs_selected_cheap_sections(self):
        text = generate_report(
            nano_scale(), image_size=7, experiments=("fig2", "fig3")
        )
        assert "Fig. 2" in text
        assert "Fig. 3" in text
        assert "Fig. 4" not in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            generate_report(nano_scale(), experiments=("nope",))

    def test_all_runners_registered(self):
        assert set(EXPERIMENT_RUNNERS) == {
            "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "table1"
        }


class TestMain:
    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        # Shrink the quick scale so the CLI test stays fast.
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module.ExperimentScale, "quick",
            classmethod(lambda cls: nano_scale()),
        )
        out = tmp_path / "report.txt"
        code = main([
            "report", "--experiments", "fig3", "--output", str(out),
        ])
        assert code == 0
        assert "Fig. 3" in out.read_text()
        assert "written to" in capsys.readouterr().out

    def test_report_to_stdout(self, capsys, monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module.ExperimentScale, "quick",
            classmethod(lambda cls: nano_scale()),
        )
        code = main(["report", "--experiments", "fig2"])
        assert code == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_output_creates_parent_dirs_utf8(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module.ExperimentScale, "quick",
            classmethod(lambda cls: nano_scale()),
        )
        out = tmp_path / "deeply" / "nested" / "report.txt"
        code = main([
            "report", "--experiments", "fig3", "--output", str(out),
        ])
        assert code == 0
        assert "Fig. 3" in out.read_text(encoding="utf-8")

    def test_jobs_produce_identical_report(self, tmp_path, capsys,
                                           monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module.ExperimentScale, "quick",
            classmethod(lambda cls: nano_scale()),
        )
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        main(["report", "--experiments", "fig2", "--jobs", "1",
              "--output", str(out1)])
        main(["report", "--experiments", "fig2", "--jobs", "2",
              "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_cache_dir_skips_recompute(self, tmp_path, capsys,
                                       monkeypatch):
        import json

        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module.ExperimentScale, "quick",
            classmethod(lambda cls: nano_scale()),
        )
        cache = tmp_path / "cache"
        log1 = tmp_path / "log1.json"
        log2 = tmp_path / "log2.json"
        common = ["report", "--experiments", "fig2", "fig3",
                  "--cache-dir", str(cache)]
        main(common + ["--run-log", str(log1),
                       "--output", str(tmp_path / "a.txt")])
        main(common + ["--run-log", str(log2),
                       "--output", str(tmp_path / "b.txt")])
        first = json.loads(log1.read_text(encoding="utf-8"))
        second = json.loads(log2.read_text(encoding="utf-8"))
        assert first["recomputed_experiments"] == 2
        assert second["recomputed_experiments"] == 0
        assert second["cached_experiments"] == 2

    def test_report_embeds_run_log_section(self, capsys, monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module.ExperimentScale, "quick",
            classmethod(lambda cls: nano_scale()),
        )
        main(["report", "--experiments", "fig3"])
        out = capsys.readouterr().out
        assert "=== run log ===" in out
        assert "fig3     computed" in out

    def test_lint_subcommand_on_clean_package(self, capsys):
        from pathlib import Path

        import repro

        src_root = str(Path(repro.__file__).parent)
        assert main(["lint", src_root]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seed_override(self, monkeypatch, capsys):
        import repro.cli as cli_module

        captured = {}
        real = cli_module.generate_report

        def spy(scale, image_size, experiments):
            captured["seed"] = scale.seed
            return real(scale, image_size, experiments)

        monkeypatch.setattr(
            cli_module.ExperimentScale, "quick",
            classmethod(lambda cls: nano_scale()),
        )
        monkeypatch.setattr(cli_module, "generate_report", spy)
        main(["report", "--experiments", "fig3", "--seed", "99"])
        assert captured["seed"] == 99


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestServeParser:
    def test_program_defaults(self):
        args = build_parser().parse_args(
            ["program", "--cache-dir", "/tmp/c"]
        )
        assert args.command == "program"
        assert args.scheme == "vortex"
        assert args.image_size == 7
        assert args.ir_mode == "ideal"

    def test_serve_requires_io_mode(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--cache-dir", "/tmp/c", "--artifact", "k"]
            )

    def test_serve_stdin_and_port_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "serve", "--cache-dir", "/tmp/c", "--artifact", "k",
                "--stdin", "--port", "8080",
            ])

    def test_cache_prune_requires_size(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cache", "prune", "--cache-dir", "/tmp/c"]
            )


class TestFleetParser:
    def test_program_defaults(self):
        args = build_parser().parse_args(
            ["fleet", "program", "--cache-dir", "/tmp/c"]
        )
        assert args.command == "fleet"
        assert args.fleet_command == "program"
        assert args.image_size == 14
        assert args.tile_rows == 49
        assert args.ir_mode == "ideal"

    def test_serve_requires_io_mode(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "serve", "--cache-dir", "/tmp/c",
                 "--fleet", "k"]
            )

    def test_serve_options(self):
        args = build_parser().parse_args([
            "fleet", "serve", "--cache-dir", "/tmp/c", "--fleet", "k",
            "--stdin", "--replicas", "3", "--drift-threshold", "0.1",
        ])
        assert args.replicas == 3
        assert args.drift_threshold == 0.1

    def test_status_defaults(self):
        args = build_parser().parse_args(
            ["fleet", "status", "--cache-dir", "/tmp/c", "--fleet", "k"]
        )
        assert args.fleet_command == "status"
        assert args.replicas == 2


class TestFleetProgramAndStatus:
    def test_program_then_status(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        argv = [
            "fleet", "program", "--cache-dir", cache_dir,
            "--image-size", "7", "--n-train", "120",
            "--tile-rows", "16", "--seed", "4",
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "programmed"
        assert summary["n_shards"] == 4  # 49 rows in 16-row tiles

        # Identical settings are a pure cache read.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "cached"

        assert main([
            "fleet", "status", "--cache-dir", cache_dir,
            "--fleet", summary["key"],
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["n_shards"] == 4
        shard = status["shards"][0]
        assert shard["live"] == 2
        assert all(lane["alive"] for lane in shard["replicas"])


class TestPipelineParser:
    def test_program_defaults(self):
        args = build_parser().parse_args(
            ["pipeline", "program", "--cache-dir", "/tmp/c"]
        )
        assert args.command == "pipeline"
        assert args.pipeline_command == "program"
        assert args.kind == "mlp"
        assert args.image_size == 7
        assert args.hidden == 32
        assert args.tile_rows == 32

    def test_serve_requires_io_mode(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["pipeline", "serve", "--cache-dir", "/tmp/c",
                 "--pipeline", "k"]
            )

    def test_eval_defaults(self):
        args = build_parser().parse_args([
            "pipeline", "eval", "--cache-dir", "/tmp/c",
            "--pipeline", "k",
        ])
        assert args.pipeline_command == "eval"
        assert args.replicas == 1
        assert args.n_test == 200
        assert args.flip_fraction == 0.1


class TestPipelineCommands:
    def test_program_eval_and_serve_stdin(
        self, tmp_path, capsys, monkeypatch
    ):
        import io
        import json

        cache_dir = str(tmp_path / "cache")
        argv = [
            "pipeline", "program", "--cache-dir", cache_dir,
            "--image-size", "7", "--n-train", "120", "--hidden", "10",
            "--epochs", "30", "--tile-rows", "20", "--seed", "4",
            "--n-probes", "8",
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "programmed"
        assert summary["kind"] == "mlp"
        assert summary["n_layers"] == 2
        assert summary["shapes"] == [[49, 10], [10, 10]]

        # Identical settings are a pure cache read.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "cached"

        assert main([
            "pipeline", "eval", "--cache-dir", cache_dir,
            "--pipeline", summary["key"], "--n-test", "24",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "mlp"
        assert report["bit_identical"] is True
        assert report["deadline_misses"] == 0
        assert 0.0 <= report["accuracy"] <= 1.0

        line = ",".join(["0.2"] * 49)
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n\n"))
        assert main([
            "pipeline", "serve", "--cache-dir", cache_dir,
            "--pipeline", summary["key"], "--stdin",
        ]) == 0
        captured = capsys.readouterr()
        answers = [
            json.loads(text)
            for text in captured.out.splitlines() if text
        ]
        assert len(answers) == 1
        assert len(answers[0]["scores"]) == 10

    def test_bsb_eval_reports_recall(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main([
            "pipeline", "program", "--cache-dir", cache_dir,
            "--kind", "bsb", "--image-size", "7", "--n-train", "120",
            "--n-prototypes", "3", "--tile-rows", "25", "--seed", "5",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "bsb"
        assert summary["n_layers"] == 1

        assert main([
            "pipeline", "eval", "--cache-dir", cache_dir,
            "--pipeline", summary["key"],
            "--probes-per-prototype", "2",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "bsb"
        assert report["bit_identical"] is True
        assert report["recall"]["recalls"] == 6
        assert 0.0 <= report["recall_success_rate"] <= 1.0


class TestCacheCommands:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        import json

        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path)]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["files"] == 0
        assert stats["total_bytes"] == 0

    def test_stats_and_prune_round_trip(self, tmp_path, capsys):
        import json

        from repro.runtime.cache import ArtifactCache, stable_key

        cache = ArtifactCache(tmp_path)
        for i in range(3):
            cache.put_json(stable_key("t", {"i": i}), {"i": i})
        main(["cache", "stats", "--cache-dir", str(tmp_path)])
        stats = json.loads(capsys.readouterr().out)
        assert stats["keys"] == 3
        main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-size-mb", "0",
        ])
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["removed_keys"] == 3
        assert pruned["total_bytes"] == 0


class TestProgramAndServe:
    def test_program_then_serve_stdin(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        from repro.runtime.cache import ArtifactCache
        from repro.serve import ProgrammedArray

        cache_dir = str(tmp_path / "cache")
        argv = [
            "program", "--cache-dir", cache_dir, "--scheme", "old",
            "--image-size", "7", "--n-train", "120", "--seed", "4",
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "programmed"
        assert summary["scheme"] == "old"

        # Second run with identical settings is a pure cache read.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "cached"

        artifact = ProgrammedArray.load(
            ArtifactCache(cache_dir), summary["key"]
        )
        lines = "\n".join(
            ",".join(f"{v:.5f}" for v in row)
            for row in artifact.probes[:3]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n\n"))
        assert main([
            "serve", "--cache-dir", cache_dir,
            "--artifact", summary["key"], "--stdin",
        ]) == 0
        captured = capsys.readouterr()
        answers = [
            json.loads(line) for line in captured.out.splitlines() if line
        ]
        assert len(answers) == 3
        assert all(0 <= a["prediction"] <= 9 for a in answers)
        assert all(len(a["scores"]) == 10 for a in answers)
        stats = json.loads(captured.err.strip().splitlines()[-1])
        assert stats["answered"] == 3
        assert stats["dropped"] == 0


SERVE_WIDTH = 49  # 7x7 images

PROGRAM_ARGV = {
    "serve": [
        "program", "--scheme", "old", "--image-size", "7",
        "--n-train", "120", "--seed", "4",
    ],
    "fleet": [
        "fleet", "program", "--image-size", "7", "--n-train", "120",
        "--tile-rows", "16", "--seed", "4",
    ],
    "pipeline": [
        "pipeline", "program", "--image-size", "7", "--n-train", "120",
        "--hidden", "10", "--epochs", "30", "--tile-rows", "20",
        "--seed", "4", "--n-probes", "8",
    ],
}


@pytest.fixture(scope="module")
def served_snapshots(tmp_path_factory):
    """Serve argv (minus the I/O flag) for one snapshot of each kind."""
    import contextlib
    import io
    import json

    cache_dir = str(tmp_path_factory.mktemp("serving") / "cache")
    argvs = {}
    for kind, argv in PROGRAM_ARGV.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--cache-dir", cache_dir]) == 0
        key = json.loads(out.getvalue())["key"]
        flag = {"serve": "--artifact", "fleet": "--fleet",
                "pipeline": "--pipeline"}[kind]
        prefix = ["serve"] if kind == "serve" else [kind, "serve"]
        argvs[kind] = prefix + ["--cache-dir", cache_dir, flag, key]
    return argvs


class TestMalformedQueries:
    """A bad query gets an error answer; the front end keeps serving."""

    @pytest.mark.parametrize("kind", sorted(PROGRAM_ARGV))
    def test_stdin_answers_bad_lines_and_goes_on(
        self, kind, served_snapshots, capsys, monkeypatch
    ):
        import io
        import json

        valid = ",".join(["0.2"] * SERVE_WIDTH)
        lines = [valid, "0.2,abc", ",".join(["0.2"] * 5), valid]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        assert main(served_snapshots[kind] + ["--stdin"]) == 0
        answers = [
            json.loads(text)
            for text in capsys.readouterr().out.splitlines() if text
        ]
        assert len(answers) == 4
        assert answers[1] == answers[2] == {"error": "bad request"}
        assert answers[0] == answers[3]
        assert len(answers[0]["scores"]) == 10

    @pytest.mark.parametrize("kind", sorted(PROGRAM_ARGV))
    def test_http_answers_400_and_goes_on(self, kind, served_snapshots):
        import http.client
        import json
        import threading

        from repro import cli

        build = {
            "serve": cli._build_service,
            "fleet": cli._build_fleet_service,
            "pipeline": cli._build_pipeline_service,
        }[kind]
        args = build_parser().parse_args(
            served_snapshots[kind] + ["--port", "0"]
        )
        service = build(args)
        server = cli._http_server(service, 0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()

        def post(length: str, body: bytes) -> int:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=30.0
            )
            try:
                conn.putrequest("POST", "/predict")
                conn.putheader("Content-Length", length)
                conn.endheaders(body)
                response = conn.getresponse()
                response.read()
                return response.status
            finally:
                conn.close()

        def inputs(width: int, rows: int = 1) -> bytes:
            return json.dumps({"inputs": [[0.2] * width] * rows}).encode()

        try:
            ok = inputs(SERVE_WIDTH, rows=2)
            assert post(str(len(ok)), ok) == 200
            bad = inputs(5)
            assert post(str(len(bad)), bad) == 400
            assert post("abc", ok) == 400
            assert post("-1", ok) == 400
            assert post("3", b"[1]") == 400
            assert post(str(len(ok)), ok) == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            service.close()


class TestModuleEntryPoint:
    def test_program_vortex_then_serve_as_subprocesses(self, tmp_path):
        """``python -m repro``: program a Vortex array, reuse it, serve it."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )

        def run(*argv: str, stdin: str = "") -> str:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], input=stdin,
                capture_output=True, text=True, env=env, timeout=600,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout

        cache_dir = str(tmp_path / "cache")
        program = (
            "program", "--cache-dir", cache_dir, "--scheme", "vortex",
            "--image-size", "7", "--n-train", "150", "--sigma", "0.3",
            "--seed", "0",
        )
        summary = json.loads(run(*program))
        assert summary["status"] == "programmed"
        assert summary["scheme"] == "vortex"
        assert summary["logical_rows"] == SERVE_WIDTH
        again = json.loads(run(*program))
        assert (again["status"], again["key"]) == ("cached", summary["key"])

        answers = run(
            "serve", "--cache-dir", cache_dir,
            "--artifact", summary["key"], "--stdin",
            stdin=",".join(["0.2"] * SERVE_WIDTH) + "\n",
        ).splitlines()
        assert len(answers) == 1
        assert 0 <= json.loads(answers[0])["prediction"] <= 9
