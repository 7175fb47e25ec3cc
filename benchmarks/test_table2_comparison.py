"""E2 — Table II: HOF/VOF/WL/RT of Commercial*, RePlAce-like, and PUFFER.

Runs all three flows on every suite design at the benchmark scale,
evaluates each legalized placement with the global router, and prints the
Table-II reproduction (absolute rows plus the normalized Average and
Pass-Count rows).  Expected shape versus the paper:

* PUFFER attains the best average HOF and VOF and the best pass counts;
* the commercial substitute is close in quality but several times slower;
* the RePlAce-like flow is clearly worse on the congested designs.

Runtime at the default scale (0.004) is a few minutes: 2 min 09 s and
3 min 22 s in two measurements on 2-vCPU containers.  Set
``REPRO_SCALE=0.002`` for a quicker pass.
"""

import json
import os

from repro.evalkit import SuiteRunConfig, format_table2, run_suite

from conftest import save_artifact


def test_table2_comparison(benchmark, scale, out_dir):
    config = SuiteRunConfig(scale=scale)
    rows = benchmark.pedantic(
        lambda: run_suite(
            config,
            progress=lambda r: print(
                f"    {r.benchmark:16s} {r.placer:16s} "
                f"HOF {r.hof:6.2f}  VOF {r.vof:6.2f}  RT {r.runtime:6.1f}s"
            ),
        ),
        rounds=1,
        iterations=1,
    )
    table = format_table2(rows)
    print()
    print(table)
    save_artifact(out_dir, "table2.txt", table)
    with open(os.path.join(out_dir, "table2.json"), "w") as f:
        json.dump(
            [
                {
                    "benchmark": r.benchmark,
                    "placer": r.placer,
                    "hof": r.hof,
                    "vof": r.vof,
                    "wl": r.wirelength,
                    "rt": r.runtime,
                }
                for r in rows
            ],
            f,
            indent=2,
        )

    from repro.evalkit import aggregate

    averages = {a.placer: a for a in aggregate(rows, "PUFFER")}
    puffer = averages["PUFFER"]
    commercial = averages["Commercial_Inn*"]
    replace = averages["RePlAce-like"]
    # Paper shape: PUFFER best overflow averages and pass counts.
    assert puffer.hof_mean <= commercial.hof_mean + 1e-9
    assert puffer.hof_mean <= replace.hof_mean + 1e-9
    assert puffer.vof_mean <= replace.vof_mean + 1e-9
    assert puffer.pass_h >= max(commercial.pass_h, replace.pass_h)
    # Paper shape: the commercial tool is substantially slower.
    assert commercial.rt_ratio > 1.2
