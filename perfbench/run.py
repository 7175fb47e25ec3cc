"""Netlist-to-route flow benchmark: three workloads through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload flow_ct_top --seed 3 --seconds 30 --trace 0

Workloads (closed loops from one client; see ``workloads.py``):

* ``flow_ct_top`` — ``api.run(design, "puffer", route=True)`` on CT_TOP
  (uncongested; global placement dominates);
* ``eco_or1200`` — one ``EcoSession.apply(delta)`` per op on OR1200
  (windowed rip-up-and-reroute and maze search dominate);
* ``explore_served`` — TPE trials through an in-process two-shard
  ``PlacementService``; one op is one trial from submit to result.

A run is ``ROUNDS`` rounds.  Each round times a fresh interpreter
importing the workloads (and with them ``repro``), sets the workload up
(ending with one untimed warm-up op), runs ops until the run's measured
time reaches the round's share of ``--seconds`` (default: ``run_seconds``
of ``BENCHMARK.json``), checks the final state and tears down.  Spreading
the set-ups over the run makes their median see the same host as the
ops instead of the few seconds at its start.  Every op's output is
checked outside its timed interval.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metric
names and units are the ones ``BENCHMARK.json`` lists:

* ``--trace 0``: ``end_to_end`` — ``setup_s`` (median over the rounds of
  import plus set-up), ``op_p50_s``, ``ops_per_s``, the legalized
  ``hpwl`` and ``routed_wl`` of the run's reference result, and
  ``peak_rss_mb``.  ``op_p90_s`` goes to the info line with the number
  of ops beyond it: on CT_TOP a 30 s run has three, and host-speed
  bursts moved it by 32% (quartile spread) across ten runs of
  identical work;
* ``--trace 1``: ``per_layer``.  Every other step runs with timing
  wrappers around each layer's public functions (``spans.py``) and a
  recording ``repro.obs`` tracer; the untraced steps in between give
  ``trace.overhead_frac``.  Seconds and call counts are per traced op
  (per trial on ``explore_served``), ``share.*`` are self-time shares of
  the traced ops, and the spans go to ``perfbench/out/<workload>-seed<n>.json``.
  On ``explore_served`` the client blocks while the shards work, so the
  place and route seconds the shards report for the job that closes each
  wave move from ``share.serve`` to ``share.worker``.
  ``serve.*`` come from the public ``Job`` records of every timed
  exploration (``serve.jobs``, ``serve.coalesced`` and
  ``serve.cache_hits`` are run totals, ``tpe.trials`` is per
  exploration); ``eco.*`` and ``legalizer.full_fallbacks`` from the
  timed deltas' ``EcoResult``s (means per delta, fallbacks as totals).

Lines before the last one record the machine (cores, numpy/scipy, the
kernel backend, BLAS/FFT thread settings), the sample counts, and the
run's quality numbers (HOF/VOF and the exploration loss included) with
full precision.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")

#: Set-up rounds per run; ``setup_s`` reports their median.
ROUNDS = 5

#: ``repro.obs`` counters read during traced ops.
OBS_COUNTERS = ("gp/grad_evals", "gp/backtracks", "route/rip_ups", "maze/calls")


def load_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def machine() -> dict:
    """Where the numbers were measured; threads are recorded, not pinned."""
    import numpy as np
    import scipy
    import scipy.fft

    import repro.kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernels": repro.kernels.current(),
        "fft_workers": scipy.fft.get_workers(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "REPRO_KERNELS")
        },
    }


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the workloads."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{HERE!r}, {SRC!r}]; import workloads; "
        "print(time.perf_counter() - t0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def descendants() -> list:
    """Pids of the processes below this one, read from ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    stat = f.read().rpartition(")")[2].split()
            except OSError:
                continue
            parents[int(entry)] = int(stat[1])
    found, frontier = [], [os.getpid()]
    while frontier:
        frontier = [pid for pid, ppid in parents.items() if ppid in frontier]
        found += frontier
    return found


def stop_children(grace: float = 10.0) -> None:
    """End every process the run started and wait until each is gone.

    A stopped service terminates its shard processes without joining
    them, and publishing a shared-memory design starts the
    ``multiprocessing`` resource tracker, which lives until this
    process exits; both would outlive the run by a moment.  Anything
    still left after them is killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()
    left = descendants()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    for pid in left:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # a grandchild: its parent reaps it
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Measurement:
    """What the timed loop saw: op latencies and the check outcome."""

    latencies: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    elapsed_s: float = 0.0
    busy_s: float = 0.0
    check_s: float = 0.0
    #: ``(latencies, busy seconds)`` of each round's ops.
    rounds: list = field(default_factory=list)


def measure(workload, until: float, m: Measurement, recorder=None,
            tracer=None) -> None:
    """Run steps into ``m`` until its measured time reaches ``until``
    seconds (and for at least ``min_steps`` steps), checking each step's
    output outside its timed interval, then the final state.

    With a recorder, every other step is traced: the layer wrappers and
    the ``repro.obs`` tracer are installed for that step alone.
    """
    from repro import obs
    from spans import ROOT

    min_steps = workload.min_steps * (2 if recorder is not None else 1)
    first, busy = len(m.latencies), m.busy_s
    steps = 0
    start = time.perf_counter()
    while (steps < min_steps
           or m.elapsed_s + time.perf_counter() - start < until):
        traced = recorder is not None and m.steps % 2 == 1
        t0 = time.perf_counter()
        if traced:
            obs.set_tracer(tracer)
            try:
                with recorder.installed():
                    lat, out = workload.step(lambda: recorder.span(ROOT))
            finally:
                obs.set_tracer(None)
        else:
            lat, out = workload.step()
        m.busy_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        m.failed += workload.check(out)
        m.check_s += time.perf_counter() - t0
        m.attempted += len(lat)
        m.latencies += lat
        (m.traced if traced else m.plain).extend(lat)
        m.steps += 1
        steps += 1
    m.elapsed_s += time.perf_counter() - start
    m.rounds.append((m.latencies[first:], m.busy_s - busy))
    t0 = time.perf_counter()
    m.failed += workload.finish()
    m.check_s += time.perf_counter() - t0


def waves(batch: list) -> list:
    """One exploration's jobs split into the waves the sampler submitted
    together: the next wave is submitted only after the slowest job of
    this one finished."""
    out = [[]]
    for job in batch:
        if out[-1] and job.submitted_at >= max(j.finished_at for j in out[-1]):
            out.append([])
        out[-1].append(job)
    return out


def work_s(job) -> float:
    """Place and route seconds the shard reported for ``job``."""
    return job.result["place_seconds"] + job.result["route"]["runtime"]


def _finish_spread(wave: list) -> float:
    ends = [job.finished_at for job in wave]
    return max(ends) - min(ends)


def critical_work_s(workload) -> float:
    """Shard compute the client waited on during the traced explorations:
    for each wave, the place and route seconds of the job that ran last."""
    total = 0.0
    for _, batch, traced in getattr(workload, "explorations", []):
        if traced:
            for wave in waves(batch):
                ran = [job for job in wave if job.started_at is not None]
                total += work_s(max(ran, key=lambda job: job.finished_at))
    return total


def serve_metrics(workload, shards: int) -> dict:
    """``serve.*`` and ``tpe.*`` waits from the public ``Job`` records."""
    explorations = getattr(workload, "explorations", [])
    jobs = [job for _, batch, _ in explorations for job in batch]
    metrics = dict.fromkeys(
        ("serve.queue_wait_s", "serve.job_run_s", "serve.job_overhead_s",
         "serve.job_overhead_frac", "serve.shard_busy_frac", "serve.jobs",
         "serve.coalesced", "serve.cache_hits", "tpe.wave_wait_s",
         "tpe.trials"), 0.0)
    if not jobs:
        return metrics
    # A coalesced job never runs: it takes its primary's result.
    ran = [job for job in jobs if job.started_at is not None]
    runs = [job.finished_at - job.started_at for job in ran]
    work = [work_s(job) for job in ran]
    waits = [_finish_spread(wave)
             for _, batch, _ in explorations for wave in waves(batch)]
    wall = sum(seconds for seconds, _, _ in explorations)
    metrics.update({
        "serve.queue_wait_s": statistics.median(
            job.started_at - job.submitted_at for job in ran),
        "serve.job_run_s": statistics.median(runs),
        "serve.job_overhead_s": statistics.median(
            run - w for run, w in zip(runs, work)),
        "serve.job_overhead_frac": 1.0 - sum(work) / sum(runs),
        "serve.shard_busy_frac": sum(runs) / (shards * wall),
        "serve.jobs": float(len(jobs)),
        "serve.coalesced": float(sum(job.coalesced for job in jobs)),
        "serve.cache_hits": float(sum(job.cache_hit for job in jobs)),
        "tpe.wave_wait_s": statistics.mean(waits),
        "tpe.trials": len(jobs) / len(explorations),
    })
    return metrics


def eco_metrics(workload) -> dict:
    """Per-delta ECO counts from the timed deltas' ``EcoResult``s."""
    deltas = getattr(workload, "results", [])
    if not deltas:
        return {"eco.dirty_cells": 0.0, "eco.dirty_nets": 0.0,
                "eco.warm_place": 0.0, "legalizer.full_fallbacks": 0.0}
    return {
        "eco.dirty_cells": statistics.mean(s.dirty_cells for s in deltas),
        "eco.dirty_nets": statistics.mean(s.dirty_nets for s in deltas),
        "eco.warm_place": float(sum("place" in s.full_fallbacks for s in deltas)),
        "legalizer.full_fallbacks": float(
            sum("legalize" in s.full_fallbacks for s in deltas)),
    }


def layer_metrics(recorder, tracer, m: Measurement, worker_s: float) -> dict:
    """Per-layer metrics of the traced ops; ``worker_s`` of the client's
    ``serve`` self time was shard compute (see ``critical_work_s``)."""
    from spans import KERNELS, LAYERS

    per_name, per_layer, root_total = recorder.self_times()
    worker_s = min(worker_s, per_layer.get("serve", 0.0))
    per_layer["serve"] = per_layer.get("serve", 0.0) - worker_s
    per_layer["worker"] = worker_s
    counts = recorder.counts
    instruments = tracer.metrics()
    n = max(len(m.traced), 1)

    def seconds(name):
        return per_name.get(name, (0.0, 0))[0] / n

    def calls(name):
        return per_name.get(name, (0.0, 0))[1] / n

    def obs_count(name):
        return instruments.get(name, {}).get("value", 0.0)

    maze_calls = per_name.get("router.maze", (0.0, 0))[1]
    steps = per_name.get("placer.nesterov", (0.0, 0))[1]
    metrics = {
        "placer.gp_s": seconds("placer.gp"),
        "placer.iterations": counts["placer.iterations"] / n,
        "placer.wa_grad_s": seconds("placer.wa_grad"),
        "placer.wa_grad_calls": calls("placer.wa_grad"),
        "placer.density_grad_s": seconds("placer.density_grad"),
        "placer.density_grad_calls": calls("placer.density_grad"),
        "placer.poisson_s": seconds("placer.poisson"),
        "placer.nesterov_s": seconds("placer.nesterov"),
        "placer.nesterov_steps": calls("placer.nesterov"),
        "placer.grad_evals_per_step": (
            obs_count("gp/grad_evals") / steps if steps else 0.0),
        "core.padding_rounds": counts["core.padding_rounds"] / n,
        "core.padding_hook_s": seconds("core.padding_hook"),
        "core.estimate_s": seconds("core.estimate"),
        "core.topologies_s": seconds("core.topologies"),
        "core.demand_s": seconds("core.demand"),
        "core.expansion_s": seconds("core.expansion"),
        "core.features_s": seconds("core.features"),
        "core.padding_s": seconds("core.padding"),
        "legalizer.abacus_s": seconds("legalizer.abacus"),
        "legalizer.padded_widths_s": seconds("legalizer.padded_widths"),
        "legalizer.region_s": seconds("legalizer.region"),
        "legalizer.region_calls": calls("legalizer.region"),
        "router.route_s": seconds("router.route"),
        "router.rsmt_s": seconds("router.rsmt"),
        "router.pattern_s": seconds("router.pattern"),
        "router.pattern_calls": calls("router.pattern"),
        "router.maze_s": seconds("router.maze"),
        "router.maze_calls": calls("router.maze"),
        "router.maze_found_frac": (
            counts["router.maze_found"] / maze_calls if maze_calls else 0.0),
        "router.victims_s": seconds("router.victims"),
        "router.rrr_rounds": counts["router.rrr_rounds"] / n,
        "router.reroute_s": seconds("router.reroute"),
        "router.reroute_calls": calls("router.reroute"),
        "eco.dirty_s": seconds("eco.dirty"),
        "runtime.shm_publish_s": seconds("runtime.shm_publish"),
        "serve.wave_s": seconds("serve.wave"),
        "worker.critical_s": worker_s / n,
        "tpe.suggest_s": seconds("tpe.suggest"),
        "trace.overhead_frac": (
            statistics.median(m.traced) / statistics.median(m.plain) - 1.0),
        "verify.check_s": m.check_s / m.attempted,
    }
    for name in OBS_COUNTERS:
        metrics["obs." + name.replace("/", "_")] = obs_count(name) / n
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}_s"] = seconds(f"kernels.{kernel}")
        metrics[f"kernels.{kernel}_calls"] = calls(f"kernels.{kernel}")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = per_layer.get(layer, 0.0) / root_total
    metrics["share.unattributed"] = per_layer.get("op", 0.0) / root_total
    return metrics


def run(args, spec: dict) -> dict:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"repro sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import workloads  # imports repro

    import_s = time.perf_counter() - _START
    host = machine()
    print(json.dumps({"machine": host}), flush=True)

    workload = workloads.make(args.workload, args.seed)
    recorder = tracer = None
    if args.trace:
        from repro import obs
        from spans import SpanRecorder

        recorder = SpanRecorder()
        tracer = obs.Tracer(ring_size=1)
    m = Measurement()
    imports, setups = [], []
    for i in range(ROUNDS):
        imports.append(time_import())
        try:
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            measure(workload, args.seconds * (i + 1) / ROUNDS, m, recorder,
                    tracer)
        finally:
            workload.teardown()

    quality = workload.quality
    if quality is None:
        raise RuntimeError("the run ended before its quality was read")
    p90 = statistics.quantiles(m.latencies, n=10, method="inclusive")[-1]
    print(json.dumps({
        "run": {
            "workload": args.workload, "seed": args.seed, "steps": m.steps,
            "ops": len(m.latencies), "op_p90_s": p90,
            "beyond_p90": sum(v > p90 for v in m.latencies),
            "import_s": import_s, "round_imports_s": imports,
            "round_setups_s": setups,
            "round_p50_s": [statistics.median(lat) for lat, _ in m.rounds],
            "round_ops_per_s": [len(lat) / busy for lat, busy in m.rounds],
            "warm_shards": getattr(workload, "warm_shards", None),
        },
        "quality": quality,
    }), flush=True)
    if args.trace:
        metrics = layer_metrics(recorder, tracer, m, critical_work_s(workload))
        metrics.update(serve_metrics(workload, workloads.SHARDS))
        metrics.update(eco_metrics(workload))
        metrics.update({f"quality.{k}": v for k, v in quality.items()})
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"machine": host, "metrics": metrics,
                       "spans": recorder.to_records()}, f)
        listed = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(map(sum, zip(imports, setups))),
            "op_p50_s": statistics.median(m.latencies),
            "ops_per_s": len(m.latencies) / m.busy_s,
            "hpwl": quality["hpwl"],
            "routed_wl": quality["routed_wl"],
            "peak_rss_mb": peak_rss_mb(),
        }
        listed = spec["end_to_end"]
    if set(metrics) != {entry["name"] for entry in listed}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in listed
        },
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args, spec)
    finally:
        stop_children()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
