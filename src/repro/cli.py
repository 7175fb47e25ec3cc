"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``  — synthesize a suite benchmark and save it (Bookshelf).
* ``ingest``    — load a Yosys ``write_json`` netlist, report its
  structure, and optionally save it (Bookshelf).
* ``place``     — place a design (puffer / wirelength / replace /
  commercial flows), optionally route it, and save the result; the
  design is a suite benchmark name or a Yosys ``*_mapped.json`` netlist.
* ``route``     — route a placed design and report HOF/VOF/WL.
* ``explore``   — run the strategy exploration on a small design.
* ``suite``     — the Table-II comparison across the benchmark suite.
* ``report``    — summarize a :mod:`repro.obs` trace file.
* ``serve``     — boot the async placement job server (:mod:`repro.serve`);
  ``--shards N`` runs placements on worker process shards and
  ``--client-weight`` tunes the fair queue.
* ``submit``    — post a placement job to a running server;
  ``--follow`` streams its progress events live.
* ``jobs``      — list, inspect (``--events``), or cancel jobs on a
  running server.
* ``eco``       — incremental placement sessions (:mod:`repro.eco`):
  ``eco run`` converges locally and applies deltas from a JSON file;
  ``eco open`` / ``eco delta`` / ``eco show`` / ``eco sessions`` /
  ``eco close`` drive the stateful sessions API of a running server.

``place`` and ``suite`` additionally take ``--verify {off,cheap,full}``
to run the invariant checkers on every produced placement.

Every run command is a thin wrapper over :mod:`repro.api`; flow
resolution and orchestration live behind that facade.  The shared
``--trace PATH`` flag streams a :mod:`repro.obs` JSONL trace of the run,
which ``repro report`` renders as a per-stage breakdown.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import api, obs
from .benchgen import make_design, suite_names
from .netlist import load_design, save_design
from .placer import PlacementParams


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PUFFER routability-driven placement (DAC 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesize a suite benchmark")
    generate.add_argument("design", choices=suite_names())
    generate.add_argument("--scale", type=float, default=0.004)
    generate.add_argument("--out", required=True, help="output directory")

    ingest = sub.add_parser("ingest", help="load a Yosys write_json netlist")
    ingest.add_argument("netlist", help="path to a Yosys *_mapped.json file")
    ingest.add_argument("--top", default=None,
                        help="module to ingest (default: the top attribute)")
    ingest.add_argument("--lib", default=None, metavar="PATH",
                        help="JSON cell-size table overriding the built-in "
                        "liberty-lite widths")
    ingest.add_argument("--utilization", type=float, default=0.7,
                        help="target utilization when sizing the die")
    ingest.add_argument("--out", help="directory to save the design (Bookshelf)")

    place = sub.add_parser("place", help="place a design")
    place.add_argument(
        "design",
        help="suite benchmark name or path to a Yosys *_mapped.json netlist",
    )
    place.add_argument("--scale", type=float, default=0.004)
    place.add_argument("--flow", choices=list(api.FLOWS), default="puffer")
    place.add_argument("--seed", type=int, default=0)
    place.add_argument("--max-iters", type=int, default=900)
    place.add_argument("--out", help="directory to save the placed design")
    place.add_argument("--route", action="store_true", help="evaluate with the router")
    _add_runtime_args(place, jobs=False, verify=True)

    route = sub.add_parser("route", help="route a saved placement")
    route.add_argument("directory")
    route.add_argument("name")
    _add_runtime_args(route, jobs=False)

    explore = sub.add_parser("explore", help="strategy exploration (Sec. III-C)")
    explore.add_argument("--design", default="OR1200", choices=suite_names())
    explore.add_argument("--scale", type=float, default=0.008)
    explore.add_argument("--budget", type=int, default=12)
    explore.add_argument("--seed", type=int, default=7,
                         help="exploration RNG seed")
    explore.add_argument("--batch-size", type=int, default=None,
                         help="TPE candidates per round (default: --jobs; "
                         "1 is the bit-exact serial protocol)")
    explore.add_argument("--priors", choices=list(api.PRIOR_MODES),
                         default="auto",
                         help="transfer-prior warm start from completed "
                         "explorations when a cache is available "
                         "(ignored with --resume: journal replay needs "
                         "the original candidate stream)")
    explore.add_argument("--follow", action="store_true",
                         help="print every trial as it completes")
    explore.add_argument("--server", action="store_true",
                         help="run the exploration on a running repro serve "
                         "endpoint (--host/--port) instead of locally")
    explore.add_argument("--out", help="write the explored parameters as JSON")
    _add_runtime_args(explore)
    _add_server_args(explore)

    suite = sub.add_parser("suite", help="Table-II comparison")
    suite.add_argument("--scale", type=float, default=0.004)
    suite.add_argument(
        "--designs", nargs="*", default=None, help="subset of benchmarks"
    )
    suite.add_argument(
        "--seed", type=int, default=0, help="benchmark-generation seed offset"
    )
    _add_runtime_args(suite, verify=True)

    report = sub.add_parser("report", help="summarize a repro.obs trace")
    report.add_argument("trace", help="path to a JSONL trace file")
    report.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most expensive stages (by total wall-clock)",
    )

    serve = sub.add_parser("serve", help="run the placement job server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8180,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent in-process placement workers "
                       "(ignored when --shards is set)")
    serve.add_argument("--shards", type=int, default=0,
                       help="worker *process* shards; a crashed or "
                       "timed-out worker fails only its job")
    serve.add_argument("--capacity", type=int, default=8,
                       help="bounded queue size (backpressure beyond it)")
    serve.add_argument(
        "--client-weight", action="append", default=None,
        metavar="CLIENT=W",
        help="fair-queue weight for a client id (repeatable), "
        "e.g. --client-weight batch=1 --client-weight interactive=3",
    )
    serve.add_argument("--cache-dir", default=None,
                       help="artifact cache for result memoization")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-job timeout in seconds")
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream a repro.obs JSONL trace of the server to PATH",
    )

    submit = sub.add_parser("submit", help="submit a job to a running server")
    submit.add_argument(
        "design",
        help="suite benchmark name or path to a Yosys *_mapped.json netlist "
        "(the path must be readable by the server)",
    )
    submit.add_argument("--flow", choices=list(api.FLOWS), default="puffer")
    submit.add_argument("--scale", type=float, default=0.004)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--max-iters", type=int, default=900)
    submit.add_argument("--route", action="store_true",
                        help="also evaluate with the global router")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds")
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority (larger = more important; "
                        "may shed lower-priority queued work when full)")
    submit.add_argument("--client-id", default=None,
                        help="fair-queue bucket the job schedules from")
    submit.add_argument("--follow", action="store_true",
                        help="stream the job's progress events until it "
                        "finishes, then print the result")
    submit.add_argument("--wait", action="store_true",
                        help="wait until the job finishes and print the result")
    submit.add_argument("--wait-timeout", type=float, default=None,
                        help="give up polling after this many seconds")
    _add_server_args(submit)

    jobs = sub.add_parser("jobs", help="inspect jobs on a running server")
    jobs.add_argument("job", nargs="?", default=None,
                      help="job id to show (omit to list all jobs)")
    jobs.add_argument("--state", default=None,
                      help="filter the listing by lifecycle state")
    jobs.add_argument("--cancel", metavar="JOB",
                      help="cancel the given job instead of listing")
    jobs.add_argument("--events", metavar="JOB",
                      help="print the given job's event stream so far")
    _add_server_args(jobs)

    eco = sub.add_parser("eco", help="incremental placement sessions (ECO)")
    eco_sub = eco.add_subparsers(dest="eco_command", required=True)

    eco_run = eco_sub.add_parser(
        "run", help="local session: converge once, apply deltas from a JSON file"
    )
    eco_run.add_argument("design", choices=suite_names())
    eco_run.add_argument("--scale", type=float, default=0.004)
    eco_run.add_argument("--seed", type=int, default=0)
    eco_run.add_argument(
        "--deltas", metavar="PATH",
        help="JSON file with a list of delta wire dicts to apply in order",
    )
    eco_run.add_argument(
        "--verify", default="cheap", choices=["off", "cheap", "full"],
        help="invariant-checker level run after every delta",
    )
    eco_run.add_argument(
        "--cache-dir", default=None,
        help="artifact cache; a repeated cold start restores from disk",
    )
    eco_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream a repro.obs JSONL trace of the session to PATH",
    )

    eco_open = eco_sub.add_parser("open", help="open a session on a running server")
    eco_open.add_argument("design", choices=suite_names())
    eco_open.add_argument("--scale", type=float, default=0.004)
    eco_open.add_argument("--seed", type=int, default=0)
    eco_open.add_argument("--verify", default="cheap",
                          choices=["off", "cheap", "full"])
    eco_open.add_argument("--wait", action="store_true",
                          help="wait until the cold start finishes")
    eco_open.add_argument("--wait-timeout", type=float, default=None)
    _add_server_args(eco_open)

    eco_sessions = eco_sub.add_parser("sessions", help="list server sessions")
    _add_server_args(eco_sessions)

    eco_show = eco_sub.add_parser("show", help="show one session")
    eco_show.add_argument("session")
    _add_server_args(eco_show)

    eco_delta = eco_sub.add_parser(
        "delta", help="submit an incremental delta to a session"
    )
    eco_delta.add_argument("session")
    eco_delta.add_argument(
        "--json", dest="payload", metavar="JSON",
        help="delta wire dict, e.g. "
        '\'{"kind": "resize_cell", "cell": 7, "width": 12.0}\'',
    )
    eco_delta.add_argument(
        "--file", dest="payload_file", metavar="PATH",
        help="read the delta wire dict from a JSON file",
    )
    eco_delta.add_argument("--wait", action="store_true",
                           help="wait until the delta finishes")
    eco_delta.add_argument("--wait-timeout", type=float, default=None)
    _add_server_args(eco_delta)

    eco_close = eco_sub.add_parser("close", help="close a session (GC its state)")
    eco_close.add_argument("session")
    _add_server_args(eco_close)
    return parser


def _add_runtime_args(parser, jobs: bool = True, verify: bool = False) -> None:
    """The shared execution flags.

    Every run command gets ``--trace``; ``verify=True`` adds the
    ``--verify`` checker-level flag; commands that go through
    :mod:`repro.runtime` (``jobs=True``) additionally get the
    worker/cache/resume flags.
    """
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream a repro.obs JSONL trace of the run to PATH",
    )
    if verify:
        parser.add_argument(
            "--verify", default="off", choices=["off", "cheap", "full"],
            help="run the repro.verify invariant checkers on the result",
        )
    if not jobs:
        return
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = inline serial execution)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact-cache directory; reruns reuse finished work",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint journal of an interrupted run",
    )
    parser.add_argument(
        "--journal", default=None,
        help="checkpoint journal path (default: <cache-dir or "
        f"{DEFAULT_RUNTIME_DIR}>/<command>.journal)",
    )


def _add_server_args(parser) -> None:
    """Address flags shared by the server-client commands."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8180)


DEFAULT_RUNTIME_DIR = ".repro_runtime"


def _journal_path(args, command: str) -> str:
    import os

    if args.journal:
        return args.journal
    root = args.cache_dir or DEFAULT_RUNTIME_DIR
    return os.path.join(root, f"{command}.journal")


def cmd_generate(args) -> int:
    design = make_design(args.design, args.scale)
    save_design(design, args.out)
    print(f"wrote {design} to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    from .netlist import CellLibrary, load_yosys, validate_design

    library = CellLibrary.from_json(args.lib) if args.lib else None
    design = load_yosys(
        args.netlist,
        top=args.top,
        library=library,
        utilization=args.utilization,
    )
    movable = int(design.movable.sum())
    die = design.die
    print(
        f"{design.name}: {design.num_cells} cells "
        f"({movable} movable, {design.num_cells - movable} terminals), "
        f"{design.num_nets} nets, {design.num_pins} pins"
    )
    print(f"die {die.xhi - die.xlo:g} x {die.yhi - die.ylo:g}")
    report = validate_design(design)
    print(report)
    if args.out:
        save_design(design, args.out)
        print(f"saved to {args.out}")
    return 0 if report.ok else 1


def cmd_place(args) -> int:
    config = api.RunConfig(
        scale=args.scale,
        seed=args.seed,
        placement=PlacementParams(max_iters=args.max_iters),
        verify=args.verify,
    )
    result = api.run(
        args.design,
        flow=args.flow,
        config=config,
        trace=args.trace,
        route=args.route,
        verify_legal=True,
    )
    print(f"{result.flow}: HPWL {result.hpwl:.6g}, legal={result.legality.ok}")
    if args.route:
        print(result.route_report.summary())
    verify_ok = True
    if result.verify_report is not None:
        verify_ok = result.verify_report.ok
        print(
            f"verify[{args.verify}]: {len(result.verify_report.checkers_run)} "
            f"checkers, {len(result.verify_report.errors)} errors, "
            f"{len(result.verify_report.warnings)} warnings"
        )
        for violation in result.verify_report.violations:
            print(f"  {violation}")
    if args.out:
        save_design(result.design, args.out)
        print(f"saved to {args.out}")
    return 0 if result.legality.ok and verify_ok else 1


def cmd_route(args) -> int:
    design = load_design(args.directory, args.name)
    result = api.route(design, trace=args.trace)
    print(result.route_report.summary())
    return 0


def _remote(command):
    """A server-client command: called with an HTTP client for the
    ``--host``/``--port`` flags; service errors, rejected payloads and
    timeouts print ``error: ...`` and exit 1."""

    @functools.wraps(command)
    def run(args, *rest) -> int:
        from .serve import HttpServiceClient, ServeError

        try:
            return command(HttpServiceClient(args.host, args.port), args, *rest)
        except (ServeError, ValueError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return run


def _format_trial(trial) -> str:
    """One ``repro explore --follow`` line per completed trial."""
    flags = []
    if trial.cached:
        flags.append("cached")
    if trial.overflow is None and trial.wirelength is None:
        flags.append("failed")
    suffix = f" ({', '.join(flags)})" if flags else ""
    return f"[{trial.index}] {trial.stage:14s} loss {trial.loss:.4f}{suffix}"


def _print_exploration_params(params: dict, out: str | None) -> None:
    values = {k: v for k, v in params.items() if k != "schema_version"}
    print(json.dumps(values, indent=2))
    if out:
        with open(out, "w") as f:
            json.dump(values, f, indent=2)


@_remote
def _explore_remote(client, args, config) -> int:
    """``repro explore --server``: drive ``/v1/explorations`` remotely."""
    exploration = client.create_exploration(config)
    print(f"{exploration['id']} {exploration['state']}")
    if args.follow:
        for event in client.follow(exploration["id"], kind="exploration"):
            if event.kind == "trial":
                print(_format_trial(event.trial), flush=True)
            else:
                print(f"state {event.state}", flush=True)
    exploration = client.wait(exploration["id"], kind="exploration")
    if exploration["state"] != "done":
        print(f"error: {exploration.get('error') or exploration['state']}",
              file=sys.stderr)
        return 1
    report = client.exploration_report(exploration["id"])
    print(
        f"explored {report['evaluations']} configurations; "
        f"best objective {report['best_loss']:.3f}%"
    )
    _print_exploration_params(report["params"], args.out)
    return 0


def cmd_explore(args) -> int:
    from .runtime import ArtifactCache, Journal
    from .tpe import TransferPriors

    config = api.ExploreConfig(
        design=args.design,
        scale=args.scale,
        budget=args.budget,
        seed=args.seed,
        batch_size=args.batch_size or max(args.jobs, 1),
        priors=args.priors,
    )
    if args.server:
        return _explore_remote(args, config)

    on_trial = (
        (lambda trial: print(_format_trial(trial), flush=True))
        if args.follow else None
    )
    journal = None
    if args.cache_dir or args.resume:
        journal = Journal(_journal_path(args, "explore"))
        if not args.resume:
            journal.clear()
    # A resumed run replays its journal, which only hits when the TPE
    # regenerates the original candidate stream — warm-start priors
    # (possibly saved by the very run being resumed) would perturb it.
    allow_priors = not args.resume

    if args.jobs > 1:
        # Distributed: trials run as jobs on a locally-hosted service
        # with one process shard per worker (memoization, coalescing,
        # and crash quarantine included).
        from .serve import LocalServiceHost, ServiceConfig

        host_config = ServiceConfig(
            shards=args.jobs,
            cache_dir=args.cache_dir,
            capacity=max(2 * args.jobs, 8),
        )
        with LocalServiceHost(host_config) as host:
            priors = (
                TransferPriors(host.service._cache)
                if allow_priors and host.service._cache is not None
                else None
            )
            outcome = api.run_exploration(
                config,
                evaluator=host.evaluator(config, journal=journal),
                on_trial=on_trial,
                priors=priors,
                trace=args.trace,
            )
    else:
        from .core.exploration import make_batch_evaluator
        from .obs.report import runtime_summary

        # The runtime summary is read off this run's tracer, which
        # stays in memory unless --trace names a file.
        with obs.tracing(args.trace or obs.Tracer()) as tracer:
            evaluator = None
            priors = None
            if journal is not None:
                cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
                evaluator = make_batch_evaluator(
                    config.objective(), cache=cache, journal=journal
                )
                if allow_priors and cache is not None:
                    priors = TransferPriors(cache)
            outcome = api.run_exploration(
                config, evaluator=evaluator, on_trial=on_trial, priors=priors
            )
            if evaluator is not None:
                print(f"runtime: {runtime_summary(tracer.metrics())}")

    report = outcome.report
    print(
        f"explored {report.evaluations} configurations; "
        f"best objective {report.best_loss:.3f}%"
    )
    _print_exploration_params(report.params.to_dict(), args.out)
    return 0


def cmd_suite(args) -> int:
    from .evalkit import format_table2
    from .obs.report import runtime_summary

    # The runtime summary is read off this run's tracer, which stays in
    # memory unless --trace names a file.
    with obs.tracing(args.trace or obs.Tracer()) as tracer:
        rows = api.suite(
            api.RunConfig(scale=args.scale, seed=args.seed, verify=args.verify),
            benchmarks=args.designs,
            progress=lambda r: print(
                f"  {r.benchmark:16s} {r.placer:16s} HOF {r.hof:6.2f} VOF {r.vof:6.2f}"
            ),
            jobs=args.jobs,
            cache=args.cache_dir,
            journal=_journal_path(args, "suite"),
            resume=args.resume,
        )
        print(format_table2(rows))
        print(f"runtime: {runtime_summary(tracer.metrics())}")
    return 0


def cmd_report(args) -> int:
    from .obs.report import report_file

    print(report_file(args.trace, top=args.top))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .serve import HttpServer, PlacementService, ServiceConfig

    weights = {}
    for spec in args.client_weight or []:
        client, sep, weight = spec.partition("=")
        if not sep or not client:
            print(f"error: --client-weight wants CLIENT=W, got {spec!r}",
                  file=sys.stderr)
            return 1
        try:
            weights[client] = int(weight)
        except ValueError:
            print(f"error: --client-weight weight must be an int: {spec!r}",
                  file=sys.stderr)
            return 1

    async def _serve() -> None:
        service = PlacementService(
            ServiceConfig(
                workers=args.workers,
                capacity=args.capacity,
                cache_dir=args.cache_dir,
                default_timeout=args.timeout,
                shards=args.shards,
                client_weights=weights or None,
            )
        )
        await service.start()
        server = HttpServer(service, host=args.host, port=args.port)
        host, port = await server.start()
        mode = (f"{args.shards} process shards" if args.shards
                else f"{args.workers} thread workers")
        print(f"serving placements on http://{host}:{port} ({mode})",
              flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining...", flush=True)
            await server.close()
            await service.stop()
            counts = service.counts
            print(
                f"served {counts['submitted']} jobs "
                f"({counts['done']} done, {counts['failed']} failed, "
                f"{counts['cancelled']} cancelled, "
                f"{counts['cache_hits']} cache hits)"
            )

    with obs.tracing(args.trace):
        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            pass
    return 0


def _format_event(event) -> str:
    """One ``repro submit --follow`` line per JobEvent."""
    if event.kind == "state":
        return f"[{event.seq}] state {event.state}"
    progress = event.progress
    metrics = " ".join(
        f"{name}={value:.6g}" for name, value in sorted(progress.metrics.items())
    )
    line = f"[{event.seq}] progress {progress.stage} step={progress.step}"
    return f"{line} {metrics}" if metrics else line


@_remote
def cmd_submit(client, args) -> int:
    from .serve import QueueFullError

    config = api.RunConfig(
        scale=args.scale,
        seed=args.seed,
        placement=PlacementParams(max_iters=args.max_iters),
    )
    try:
        job = client.submit(
            args.design,
            flow=args.flow,
            config=config,
            route=args.route,
            timeout=args.timeout,
            priority=args.priority,
            client_id=args.client_id,
        )
    except QueueFullError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    print(f"{job['id']} {job['state']}")
    if not (args.wait or args.follow):
        return 0
    if args.follow:
        for event in client.follow(job["id"], timeout=args.wait_timeout):
            print(_format_event(event), flush=True)
    job = client.wait(job["id"], timeout=args.wait_timeout)
    print(f"{job['id']} {job['state']}"
          + (" (cache hit)" if job["cache_hit"] else ""))
    if job["state"] == "done":
        print(json.dumps(job["result"], indent=2))
        return 0
    print(f"error: {job['error']}", file=sys.stderr)
    return 1


@_remote
def cmd_jobs(client, args) -> int:
    if args.cancel:
        job = client.cancel(args.cancel)
        print(f"{job['id']} {job['state']}")
    elif args.events:
        events = client.events(args.events)
        for event in events:
            print(_format_event(event))
        if not events:
            print("no events")
    elif args.job:
        print(json.dumps(client.status(args.job), indent=2))
    else:
        jobs = client.list(args.state)
        for job in jobs:
            extra = " (cache hit)" if job["cache_hit"] else ""
            print(f"{job['id']:10s} {job['state']:10s} "
                  f"{job['request']['design']} {job['request']['flow']}{extra}")
        if not jobs:
            print("no jobs")
    return 0


def cmd_eco(args) -> int:
    handlers = {
        "run": _eco_run,
        "open": _eco_open,
        "sessions": _eco_sessions,
        "show": _eco_show,
        "delta": _eco_delta,
        "close": _eco_close,
    }
    return handlers[args.eco_command](args)


def _format_eco_step(summary: dict) -> str:
    verify = summary.get("verify")
    verify_text = (
        "" if verify is None
        else f"  verify {'OK' if verify['ok'] else 'FAIL'}"
        f" ({verify['errors']}E/{verify['warnings']}W)"
    )
    return (
        f"v{summary['version']:<3d} {summary['kind']:16s} "
        f"HPWL {summary['hpwl']:.6g}  HOF {summary['hof']:.3f}%  "
        f"VOF {summary['vof']:.3f}%  "
        f"dirty {summary['dirty_cells']} cells / {summary['dirty_nets']} nets  "
        f"{summary['seconds'].get('total', 0.0):.3f}s{verify_text}"
    )


def _eco_run(args) -> int:
    from .eco import EcoSession
    from .runtime import ArtifactCache

    config = api.RunConfig(scale=args.scale, seed=args.seed)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    deltas = []
    if args.deltas:
        with open(args.deltas) as f:
            deltas = json.load(f)
        if not isinstance(deltas, list):
            print("error: --deltas file must hold a JSON list", file=sys.stderr)
            return 1
    with obs.tracing(args.trace):
        session = EcoSession(args.design, config=config, cache=cache)
        base = session.start()
        print(_format_eco_step(base.to_summary()))
        incremental = 0.0
        ok = True
        for payload in deltas:
            step = session.apply(payload, verify=args.verify)
            summary = step.to_summary()
            print(_format_eco_step(summary))
            incremental += summary["seconds"]["total"]
            if summary["verify"] is not None and not summary["verify"]["ok"]:
                ok = False
    cold = sum(base.seconds.get(k, 0.0) for k in ("place", "route"))
    if deltas:
        per_delta = incremental / len(deltas)
        print(
            f"{len(deltas)} deltas in {incremental:.3f}s "
            f"({per_delta:.3f}s each; cold run was {cold:.3f}s"
            + (f", {cold / per_delta:.1f}x speedup)" if per_delta > 0 else ")")
        )
    return 0 if ok else 1


@_remote
def _eco_open(client, args) -> int:
    config = api.RunConfig(scale=args.scale, seed=args.seed)
    session = client.create_session(args.design, config=config, verify=args.verify)
    print(f"{session['id']} {session['state']}")
    if not args.wait:
        return 0
    session = client.wait(session["id"], args.wait_timeout, kind="session")
    print(f"{session['id']} {session['state']}")
    if session["state"] != "ready":
        print(f"error: {session.get('error')}", file=sys.stderr)
        return 1
    print(json.dumps(session["baseline"], indent=2))
    return 0


@_remote
def _eco_sessions(client, args) -> int:
    sessions = client.list(kind="session")
    for session in sessions:
        print(
            f"{session['id']:10s} {session['state']:12s} "
            f"{session['request']['design']} v{session['version']} "
            f"({len(session['deltas'])} deltas)"
        )
    if not sessions:
        print("no sessions")
    return 0


@_remote
def _eco_show(client, args) -> int:
    print(json.dumps(client.status(args.session, kind="session"), indent=2))
    return 0


@_remote
def _eco_delta(client, args) -> int:
    if bool(args.payload) == bool(args.payload_file):
        print("error: provide exactly one of --json or --file", file=sys.stderr)
        return 1
    if args.payload_file:
        with open(args.payload_file) as f:
            payload = json.load(f)
    else:
        payload = json.loads(args.payload)
    record = client.submit_delta(args.session, payload)
    print(f"{record['id']} {record['state']}")
    if not args.wait:
        return 0
    record = client.wait(record["id"], args.wait_timeout, kind="delta")
    print(f"{record['id']} {record['state']}")
    if record["state"] != "done":
        print(f"error: {record.get('error')}", file=sys.stderr)
        return 1
    print(_format_eco_step(record["result"]))
    return 0


@_remote
def _eco_close(client, args) -> int:
    session = client.cancel(args.session, kind="session")
    print(f"{session['id']} {session['state']}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "ingest": cmd_ingest,
        "place": cmd_place,
        "route": cmd_route,
        "explore": cmd_explore,
        "suite": cmd_suite,
        "report": cmd_report,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "eco": cmd_eco,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
