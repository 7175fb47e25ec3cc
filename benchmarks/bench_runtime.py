"""Benchmark the job-execution runtime: serial vs parallel vs warm cache.

Runs a reduced Table-II matrix three ways — inline serial, with
``--jobs N`` worker processes, and a second parallel pass against the
warm artifact cache — and writes machine-readable timings to
``benchmarks/out/BENCH_runtime.json`` so the perf trajectory of the
runtime is tracked across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--scale S]
        [--jobs N] [--designs NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro import obs
from repro.evalkit import SuiteRunConfig, run_suite
from repro.obs.report import runtime_summary

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def timed_run(config: SuiteRunConfig, **kwargs) -> tuple:
    """``(rows, wall seconds, runtime/* counters)`` of one suite run."""
    with obs.tracing(obs.Tracer()) as tracer:
        start = time.perf_counter()
        rows = run_suite(config, **kwargs)
        wall = time.perf_counter() - start
    return rows, wall, tracer.metrics()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--jobs", type=int, default=max(os.cpu_count() or 1, 2))
    parser.add_argument(
        "--designs", nargs="*", default=["OR1200", "ASIC_ENTITY"]
    )
    parser.add_argument(
        "--out", default=os.path.join(OUT_DIR, "BENCH_runtime.json")
    )
    args = parser.parse_args(argv)

    import tempfile

    config = SuiteRunConfig(scale=args.scale, benchmarks=args.designs)
    cells = len(args.designs) * 3

    print(f"matrix: {len(args.designs)} designs x 3 flows at scale {args.scale}")
    _rows, serial_wall, _ = timed_run(config)
    print(f"serial (jobs=1):      {serial_wall:8.2f}s")

    with tempfile.TemporaryDirectory() as cache_dir:
        _rows, parallel_wall, metrics = timed_run(config, jobs=args.jobs, cache=cache_dir)
        print(f"parallel (jobs={args.jobs}):    {parallel_wall:8.2f}s   [{runtime_summary(metrics)}]")

        _rows, warm_wall, metrics = timed_run(config, jobs=args.jobs, cache=cache_dir)
        print(f"warm cache rerun:     {warm_wall:8.2f}s   [{runtime_summary(metrics)}]")
        cache_hits = int(metrics.get("runtime/cache_hit", {}).get("value", 0))

    report = {
        "bench": "runtime",
        "scale": args.scale,
        "designs": args.designs,
        "cells": cells,
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_wall, 4),
        "parallel_seconds": round(parallel_wall, 4),
        "warm_cache_seconds": round(warm_wall, 4),
        "parallel_speedup": round(serial_wall / max(parallel_wall, 1e-9), 3),
        "warm_cache_speedup": round(serial_wall / max(warm_wall, 1e-9), 3),
        "warm_cache_hits": cache_hits,
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
