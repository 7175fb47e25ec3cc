"""Compare fresh benchmark reports against the committed baselines.

Reads each ``BENCH_*.json`` produced by the scripts in this directory
(``benchmarks/out/``) and compares it with the matching baseline under
``benchmarks/baselines/``:

* every ``*_seconds`` metric must satisfy
  ``fresh <= baseline * (1 + budget) + 0.05`` (the absolute floor keeps
  sub-100ms timings from tripping on scheduler noise),
* every ``*_speedup`` metric must satisfy
  ``fresh >= baseline / (1 + budget)``,
* the kernel report must additionally clear the absolute tentpole
  floors: ``demand_speedup >= 3`` and ``density_speedup >= 3``, and the
  shared-memory report ``shm_latency_speedup >= 2`` — these are
  enforced even without a baseline, since they are ratios of the same
  workload on the same machine.

Comparisons against a baseline only run when the two reports describe
the same workload (the config keys match); a ``--quick`` CI run checked
against a full-size baseline skips the wall-clock comparison but still
enforces the absolute speedup floors.  A missing baseline is a skip
(first run on a new benchmark); a missing fresh report for an existing
baseline is a failure (the benchmark silently stopped running).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py [--budget 0.25]
        [--only BENCH_kernels.json BENCH_shm.json]
"""

from __future__ import annotations

import argparse
import json
import os

HERE = os.path.dirname(__file__)

#: report file -> keys that must match for baseline comparison to apply.
CONFIG_KEYS = {
    "BENCH_runtime.json": ("scale", "designs", "jobs"),
    "BENCH_obs.json": ("design", "scale", "repeats"),
    "BENCH_kernels.json": ("quick", "config"),
    "BENCH_eco.json": ("design", "scale", "seed", "edits", "quick"),
    "BENCH_serve.json": ("jobs", "hogs", "quick"),
    "BENCH_shm.json": ("design", "scale", "jobs", "quick"),
    "BENCH_explore.json": ("quick", "budget", "shards", "eval_ms", "seed"),
}

#: absolute speedup floors (report file -> {metric: floor}), checked on
#: the fresh report regardless of baseline availability.
FLOORS = {
    "BENCH_kernels.json": {"demand_speedup": 3.0, "density_speedup": 3.0},
    # The issue's acceptance bar: a single-cell resize through the ECO
    # session must beat a cold place+route rerun by >= 10x.
    "BENCH_eco.json": {"resize_speedup": 10.0},
    # The serving-tier acceptance bar: two process shards must at least
    # double thread-mode jobs/sec on the hog-mix workload (timeouts
    # that kill the worker reclaim the core; thread mode cannot).
    "BENCH_serve.json": {"shard_speedup": 2.0},
    # Zero-copy acceptance bar: handing shard workers a shared-memory
    # handle must at least halve the p50 submit-to-result latency vs
    # shipping the pickled design in every request.
    "BENCH_shm.json": {"shm_latency_speedup": 2.0},
    # Distributed-exploration acceptance bar: wave-submitting TPE
    # batches across the service shards must at least double the serial
    # trials/sec.  Per-trial latency is a fixed synthetic sleep, so the
    # ratio is machine-independent up to service overhead.
    "BENCH_explore.json": {"explore_speedup": 2.0},
}

SECONDS_GRACE = 0.05


def _load(path):
    with open(path) as f:
        return json.load(f)


def check_report(name, fresh, baseline, budget):
    """Yield ``(ok, message)`` tuples for one benchmark report."""
    for metric, floor in FLOORS.get(name, {}).items():
        value = fresh.get(metric)
        if value is None:
            yield False, f"{metric}: missing from fresh report"
        elif value < floor:
            yield False, f"{metric}: {value} below the required {floor}x floor"
        else:
            yield True, f"{metric}: {value} >= {floor}x floor"

    if baseline is None:
        yield True, "no committed baseline; wall-clock comparison skipped"
        return
    mismatched = [
        key for key in CONFIG_KEYS.get(name, ())
        if fresh.get(key) != baseline.get(key)
    ]
    if mismatched:
        yield True, (
            "config differs from baseline "
            f"({', '.join(mismatched)}); wall-clock comparison skipped"
        )
        return

    for metric in sorted(baseline):
        base = baseline[metric]
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            continue
        value = fresh.get(metric)
        if value is None:
            yield False, f"{metric}: missing from fresh report"
        elif metric.endswith("_seconds"):
            limit = base * (1.0 + budget) + SECONDS_GRACE
            ok = value <= limit
            yield ok, f"{metric}: {value}s vs baseline {base}s (limit {limit:.3f}s)"
        elif metric.endswith("_speedup"):
            limit = base / (1.0 + budget)
            ok = value >= limit
            yield ok, f"{metric}: {value}x vs baseline {base}x (floor {limit:.2f}x)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=float, default=0.25,
        help="allowed fractional slowdown vs baseline (default 0.25)",
    )
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    parser.add_argument("--baseline-dir", default=os.path.join(HERE, "baselines"))
    parser.add_argument(
        "--only", nargs="+", metavar="BENCH_x.json",
        help="gate only these reports (the always-on CI perf lane "
             "regenerates a subset; default: every known report)",
    )
    args = parser.parse_args(argv)

    names = sorted(CONFIG_KEYS)
    if args.only:
        unknown = [n for n in args.only if n not in CONFIG_KEYS]
        if unknown:
            print(f"error: unknown report(s): {', '.join(unknown)}")
            return 2
        names = sorted(args.only)

    failures = 0
    for name in names:
        fresh_path = os.path.join(args.out_dir, name)
        base_path = os.path.join(args.baseline_dir, name)
        has_baseline = os.path.exists(base_path)
        if not os.path.exists(fresh_path):
            if has_baseline:
                failures += 1
                print(f"FAIL {name}: baseline exists but no fresh report was produced")
            else:
                print(f"skip {name}: no fresh report and no baseline")
            continue
        fresh = _load(fresh_path)
        baseline = _load(base_path) if has_baseline else None
        print(name)
        for ok, message in check_report(name, fresh, baseline, args.budget):
            print(f"  {'ok  ' if ok else 'FAIL'} {message}")
            failures += 0 if ok else 1

    if failures:
        print(f"{failures} regression check(s) failed")
        return 1
    print("all regression checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
