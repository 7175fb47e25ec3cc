"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(*args):
    return main(list(args))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "OR1200", "--scale", "0.002", "--out", "/tmp/x"],
            ["place", "OR1200", "--flow", "puffer", "--trace", "/tmp/t.jsonl"],
            ["route", "/tmp/dir", "OR1200", "--trace", "/tmp/t.jsonl"],
            ["explore", "--design", "OR1200", "--budget", "4", "--jobs", "2",
             "--trace", "/tmp/t.jsonl"],
            ["suite", "--scale", "0.002", "--designs", "OR1200", "--resume",
             "--trace", "/tmp/t.jsonl"],
            ["report", "/tmp/t.jsonl"],
            ["serve", "--port", "0", "--workers", "3", "--capacity", "5",
             "--cache-dir", "/tmp/c", "--trace", "/tmp/t.jsonl"],
            ["submit", "OR1200", "--scale", "0.002", "--route", "--wait",
             "--port", "8181"],
            ["jobs", "--state", "done", "--port", "8181"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_subcommand_round_trips(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_trace_flag_defaults_to_none(self):
        for argv in (
            ["place", "OR1200"],
            ["route", "d", "n"],
            ["explore"],
            ["suite"],
        ):
            assert build_parser().parse_args(argv).trace is None

    def test_place_flow_choices_come_from_facade(self):
        from repro import api

        for flow in api.FLOWS:
            args = build_parser().parse_args(["place", "OR1200", "--flow", flow])
            assert args.flow == flow
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "OR1200", "--flow", "bogus"])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "OR1200", "--scale", "0.002", "--out", "/tmp/x"]
        )
        assert args.design == "OR1200"
        assert args.scale == 0.002

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "NOPE", "--out", "/tmp/x"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8180
        assert args.workers == 2
        assert args.capacity == 8
        assert args.cache_dir is None

    def test_jobs_cancel_flag(self):
        args = build_parser().parse_args(["jobs", "--cancel", "job-3"])
        assert args.cancel == "job-3"
        assert args.job is None

    def test_verify_flag_defaults_off(self):
        assert build_parser().parse_args(["place", "OR1200"]).verify == "off"
        assert build_parser().parse_args(["suite"]).verify == "off"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "OR1200", "--verify", "bogus"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["eco", "run", "OR1200", "--scale", "0.002", "--seed", "1",
             "--deltas", "/tmp/edits.json", "--verify", "full",
             "--cache-dir", "/tmp/c", "--trace", "/tmp/t.jsonl"],
            ["eco", "open", "OR1200", "--scale", "0.002", "--verify", "full",
             "--wait", "--wait-timeout", "60", "--port", "8181"],
            ["eco", "sessions", "--port", "8181"],
            ["eco", "show", "sess-1"],
            ["eco", "delta", "sess-1", "--json",
             '{"kind": "resize_cell", "cell": 7, "width": 12.0}', "--wait"],
            ["eco", "close", "sess-1"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_eco_subcommands_round_trip(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == "eco"
        assert args.eco_command == argv[1]

    def test_eco_run_defaults(self):
        args = build_parser().parse_args(["eco", "run", "OR1200"])
        assert args.scale == 0.004
        assert args.seed == 0
        assert args.deltas is None
        assert args.verify == "cheap"
        assert args.cache_dir is None

    def test_eco_delta_payload_flags(self):
        args = build_parser().parse_args(
            ["eco", "delta", "sess-1", "--file", "/tmp/d.json"]
        )
        assert args.payload is None
        assert args.payload_file == "/tmp/d.json"
        assert args.wait is False

    def test_eco_rejects_bad_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eco"])  # subcommand is required
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eco", "run", "NOT_A_DESIGN"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eco", "run", "OR1200", "--verify", "bogus"])


class TestCommands:
    def test_eco_delta_requires_exactly_one_payload(self, capsys):
        assert run_cli("eco", "delta", "sess-1") == 1
        err = capsys.readouterr().err
        assert "exactly one of --json or --file" in err

        assert run_cli(
            "eco", "delta", "sess-1",
            "--json", '{"kind": "resize_cell"}', "--file", "/tmp/d.json",
        ) == 1
        err = capsys.readouterr().err
        assert "exactly one of --json or --file" in err

    def test_generate_and_route(self, tmp_path, capsys):
        assert run_cli("generate", "OR1200", "--scale", "0.002", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert run_cli("route", str(tmp_path), "OR1200") == 0
        out = capsys.readouterr().out
        assert "HOF" in out

    def test_place_puffer_and_save(self, tmp_path, capsys):
        code = run_cli(
            "place", "OR1200", "--scale", "0.002", "--flow", "puffer",
            "--max-iters", "300", "--out", str(tmp_path), "--route",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "legal=True" in out
        assert "HOF" in out

    def test_place_baseline_flow(self, capsys):
        code = run_cli(
            "place", "ASIC_ENTITY", "--scale", "0.002",
            "--flow", "wirelength", "--max-iters", "300",
        )
        assert code == 0

    def test_place_with_verify(self, capsys):
        code = run_cli(
            "place", "OR1200", "--scale", "0.002", "--flow", "puffer",
            "--max-iters", "300", "--verify", "cheap",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify[cheap]" in out
        assert "0 errors" in out
        assert "legal=True" in out

    @pytest.mark.parametrize("verify", ["off", "cheap"])
    def test_place_reports_illegal_result(self, verify, monkeypatch, capsys):
        # A "flow" that never moves a cell leaves the generated, unplaced
        # positions: legal=False and exit 1, with or without --verify.
        from repro import api

        monkeypatch.setitem(api._FLOW_IMPLS, "wirelength", lambda design, placement: None)
        code = run_cli(
            "place", "OR1200", "--scale", "0.002", "--flow", "wirelength",
            "--verify", verify,
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "legal=False" in out
        assert ("verify[cheap]" in out) == (verify == "cheap")

    def test_suite_subset(self, capsys):
        code = run_cli("suite", "--scale", "0.002", "--designs", "OR1200")
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "PUFFER" in out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "PUFFER" in result.stdout

    def test_explore_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "params.json"
        code = run_cli(
            "explore", "--design", "OR1200", "--scale", "0.0015",
            "--budget", "3", "--out", str(out_file),
        )
        assert code == 0
        params = json.loads(out_file.read_text())
        assert "mu" in params and "legalizer" in params

    def test_explore_resume_is_byte_identical(self, tmp_path, capsys):
        """--resume replays the journal; the saved transfer priors of
        the first run must not perturb the resumed candidate stream."""
        first, second = tmp_path / "p1.json", tmp_path / "p2.json"
        argv = ["explore", "--design", "OR1200", "--scale", "0.0015",
                "--budget", "3", "--cache-dir", str(tmp_path / "cache")]
        assert run_cli(*argv, "--out", str(first)) == 0
        assert run_cli(*argv, "--resume", "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()


class TestServeCommands:
    """submit/jobs drive a live (fake-runner) server over HTTP."""

    @pytest.fixture()
    def server(self):
        import asyncio
        import threading

        from repro.serve import HttpServer, PlacementService, ServiceConfig

        def runner(request):
            return {"design": request["design"], "hpwl": 42.0}

        started = threading.Event()
        box = {}

        def thread_main():
            async def amain():
                service = PlacementService(
                    ServiceConfig(workers=1, capacity=4), runner=runner
                )
                await service.start()
                http = HttpServer(service, port=0)
                _host, port = await http.start()
                box["port"] = port
                box["stop"] = asyncio.Event()
                started.set()
                await box["stop"].wait()
                await http.close()
                await service.stop()

            box["loop"] = asyncio.new_event_loop()
            box["loop"].run_until_complete(amain())
            box["loop"].close()

        thread = threading.Thread(target=thread_main, daemon=True)
        thread.start()
        assert started.wait(10)
        yield box["port"]
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(10)

    def test_submit_wait_and_jobs(self, server, capsys):
        code = run_cli(
            "submit", "OR1200", "--scale", "0.002", "--wait",
            "--wait-timeout", "30", "--port", str(server),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert '"hpwl": 42.0' in out

        assert run_cli("jobs", "--port", str(server)) == 0
        out = capsys.readouterr().out
        assert "job-1" in out and "done" in out

        assert run_cli("jobs", "job-1", "--port", str(server)) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["state"] == "done"

    def test_submit_without_wait_returns_queued(self, server, capsys):
        assert run_cli("submit", "OR1200", "--port", str(server)) == 0
        out = capsys.readouterr().out
        assert "job-1" in out


class TestTracing:
    def test_place_trace_smoke(self, tmp_path, capsys):
        """End-to-end: place with --trace, then report the trace."""
        from repro import obs

        trace = tmp_path / "place.jsonl"
        code = run_cli(
            "place", "OR1200", "--scale", "0.002", "--max-iters", "300",
            "--route", "--trace", str(trace),
        )
        assert code == 0
        records = obs.read_trace(trace)
        spans = {r["name"] for r in records if r["type"] == "span"}
        assert {
            "api/run", "gp/iteration", "puffer/padding_round",
            "puffer/legalization", "route/run",
        } <= spans

        assert run_cli("report", str(trace)) == 0
        out = capsys.readouterr().out
        assert "TRACE REPORT" in out
        assert "gp/iteration" in out

    def test_explore_trace_has_tpe_trials(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "explore.jsonl"
        code = run_cli(
            "explore", "--design", "OR1200", "--scale", "0.0015",
            "--budget", "3", "--trace", str(trace),
        )
        assert code == 0
        spans = {
            r["name"] for r in obs.read_trace(trace) if r["type"] == "span"
        }
        assert "tpe/trial" in spans
        assert "explore/stage" in spans
