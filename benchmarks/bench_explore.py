"""Benchmark distributed strategy exploration vs the serial loop.

Runs the same TPE strategy exploration twice with a fixed-latency
synthetic evaluation (every trial costs ``--eval-ms`` of wall clock, a
stand-in for a real place+route):

* **serial** — ``batch_size=1`` through
  :func:`repro.core.exploration.make_batch_evaluator` with its default
  in-process transport (the ``repro explore --jobs 1`` path): one
  trial at a time, end to end;
* **distributed** — ``batch_size == --shards`` through a
  :class:`repro.serve.DistributedEvaluator` over a
  :class:`repro.serve.LocalServiceHost` (the ``repro explore --jobs N``
  path): each TPE wave is submitted before any result is awaited, so
  trials saturate every shard.

The headline metric is ``explore_speedup`` (distributed trials/sec over
serial trials/sec).  Because the per-trial latency is pinned, the ratio
measures exactly what the issue asks for — wave submission keeping N
shards busy — independent of machine speed.  The acceptance floor
(>= 2x, enforced by ``check_regression.py`` with or without a baseline)
leaves headroom under the ~``--shards``x ideal for service overhead.

Writes ``benchmarks/out/BENCH_explore.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_explore.py [--budget N]
        [--shards N] [--eval-ms MS] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro import api
from repro.core.exploration import make_batch_evaluator
from repro.core.strategy import StrategyParams
from repro.serve import LocalServiceHost, ServiceConfig

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def _fake_raw(params: dict) -> tuple:
    """Deterministic (overflow, wirelength) from the strategy params."""
    alpha = float(params.get("alpha_local_cg", 1.0))
    beta = float(params.get("beta", 1.0))
    mu = float(params.get("mu", 1.0))
    overflow = (alpha - 1.1) ** 2 + 0.3 * (beta - 0.9) ** 2 + 0.01 * (mu - 2.0) ** 2
    return overflow, 1000.0 + 10.0 * alpha + mu


class _SleepObjective:
    """The serial side: a fixed-latency placement-objective stand-in."""

    def __init__(self, eval_seconds: float) -> None:
        self.eval_seconds = eval_seconds

    def evaluate_raw(self, params: dict) -> tuple:
        time.sleep(self.eval_seconds)
        return _fake_raw(params)

    def loss_from_raw(self, raw: tuple) -> float:
        return raw[0]

    def cache_key(self, params: dict):
        return None  # every trial pays full latency, like a fresh design


def bench_runner(request):
    """Picklable service-side twin of :class:`_SleepObjective`.

    The per-trial latency rides in on the job's ``scale`` (the
    distributed evaluator copies ``ExploreConfig.scale`` into every
    request), so shard workers need no shared state with the parent.
    """
    config = request.get("config") or {}
    strategy = config.get("strategy") or {}
    params = StrategyParams.from_dict(strategy).to_dict()
    time.sleep(float(config.get("scale", 0.05)))
    overflow, wirelength = _fake_raw(params)
    return {
        "design": request["design"], "flow": "puffer", "hpwl": 1.0,
        "place_seconds": 0.0,
        "route": {
            "hof": 0.0, "vof": 0.0, "total_overflow": overflow,
            "wirelength": wirelength, "runtime": 0.0, "rounds": 1,
            "num_segments": 1, "via_count": 1,
        },
        "verify": None,
    }


def run_serial(budget: int, seed: int, eval_seconds: float) -> dict:
    config = api.ExploreConfig(scale=eval_seconds, budget=budget, seed=seed,
                               batch_size=1, priors="off")
    evaluator = make_batch_evaluator(_SleepObjective(eval_seconds))
    start = time.perf_counter()
    outcome = api.run_exploration(config, evaluator=evaluator)
    wall = time.perf_counter() - start
    return {"wall": wall, "evaluations": outcome.wire.evaluations,
            "best_loss": outcome.wire.best_loss}


def run_distributed(budget: int, seed: int, shards: int,
                    eval_seconds: float) -> dict:
    config = api.ExploreConfig(scale=eval_seconds, budget=budget, seed=seed,
                               batch_size=shards, priors="off")
    service = ServiceConfig(shards=shards, capacity=max(2 * shards, 8))
    with LocalServiceHost(service, runner=bench_runner) as host:
        evaluator = host.evaluator(config)
        start = time.perf_counter()
        outcome = api.run_exploration(config, evaluator=evaluator)
        wall = time.perf_counter() - start
    return {"wall": wall, "evaluations": outcome.wire.evaluations,
            "best_loss": outcome.wire.best_loss,
            "jobs": evaluator.jobs_submitted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=16,
                        help="global-stage evaluation budget")
    parser.add_argument("--shards", type=int, default=4,
                        help="service shards = TPE batch size")
    parser.add_argument("--eval-ms", type=float, default=80.0,
                        help="synthetic per-trial latency, milliseconds")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smaller budget and latency",
    )
    parser.add_argument("--out",
                        default=os.path.join(OUT_DIR, "BENCH_explore.json"))
    args = parser.parse_args(argv)
    if args.quick:
        # Keep the per-trial sleep long relative to service overhead:
        # the speedup ratio is what CI gates, and sleep is the only
        # machine-independent part of the wall clock.
        args.budget = min(args.budget, 10)
        args.eval_ms = min(args.eval_ms, 100.0)
    eval_seconds = args.eval_ms / 1000.0

    print(f"budget {args.budget}, {args.shards} shards, "
          f"{args.eval_ms:g}ms per trial")
    serial = run_serial(args.budget, args.seed, eval_seconds)
    serial_tps = serial["evaluations"] / serial["wall"]
    print(f"  serial     : {serial['wall']:.2f}s wall, "
          f"{serial['evaluations']} trials, {serial_tps:.1f} trials/s")
    distributed = run_distributed(args.budget, args.seed, args.shards,
                                  eval_seconds)
    distributed_tps = distributed["evaluations"] / distributed["wall"]
    print(f"  distributed: {distributed['wall']:.2f}s wall, "
          f"{distributed['evaluations']} trials "
          f"({distributed['jobs']} jobs), {distributed_tps:.1f} trials/s")
    speedup = distributed_tps / serial_tps
    print(f"distributed vs serial: {speedup:.2f}x trials/sec")

    report = {
        "bench": "explore",
        "quick": args.quick,
        "budget": args.budget,
        "shards": args.shards,
        "batch_size": args.shards,
        "eval_ms": args.eval_ms,
        "seed": args.seed,
        "serial_seconds": round(serial["wall"], 3),
        "distributed_seconds": round(distributed["wall"], 3),
        "serial_trials": serial["evaluations"],
        "distributed_trials": distributed["evaluations"],
        "serial_trials_per_sec": round(serial_tps, 2),
        "distributed_trials_per_sec": round(distributed_tps, 2),
        "explore_speedup": round(speedup, 2),
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
