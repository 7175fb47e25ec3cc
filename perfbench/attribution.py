"""Record each workload's layer shares next to its reason for being.

Runs every workload of ``BENCHMARK.json`` once with ``--trace 1`` and
writes ``perfbench/attribution.json``: per workload, the ``why`` line,
the self-time share of each layer, the share no wrapper accounts for,
the tracing overhead, and the machine the numbers came from.  A later
claim can then point at the layer that moved.

Run from the repository root::

    python3 perfbench/attribution.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    report = {}
    for workload in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload["name"], "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "1"],
            cwd=REPO, capture_output=True, text=True, check=True,
        )
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        metrics = {k: v["value"] for k, v in lines[-1]["metrics"].items()}
        report[workload["name"]] = {
            "why": workload["why"],
            "seed": args.seed,
            "seconds": seconds,
            "ops": lines[-2]["run"]["ops"],
            "shares": {k.split(".", 1)[1]: round(v, 4)
                       for k, v in metrics.items() if k.startswith("share.")},
            "trace_overhead_frac": round(metrics["trace.overhead_frac"], 4),
            "job_overhead_frac": round(metrics["serve.job_overhead_frac"], 4),
            "machine": lines[0]["machine"],
        }
        print(workload["name"], json.dumps(report[workload["name"]]["shares"]))
    with open(os.path.join(HERE, "attribution.json"), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
