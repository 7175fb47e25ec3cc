"""Microbenchmarks of the :mod:`repro.kernels` hot paths.

Times each kernel against its loop in ``tests/kernels_oracle.py`` on
synthetic inputs sized like a large placement (config in the report),
verifies the two agree while doing so, and writes seconds + speedups to
``benchmarks/out/BENCH_kernels.json`` (``*_reference_seconds`` is the
loop, ``*_vectorized_seconds`` the kernel).

The tentpole acceptance bar (gated by ``check_regression.py``) is a
>= 3x speedup on:

* ``demand`` — weighted-rectangle demand accumulation (``rect_add``,
  the RSMT/RUDY rasterizer), and
* ``density`` — the full electrostatic charge-density map: smoothed
  movable bin overlap (``bin_overlap``) plus exact fixed-object
  rasterization (``rect_area``), the two per-bin loop nests of
  ``placer/density.py``.

``rudy`` and ``maze`` are recorded for visibility alongside, as are the
round-2 kernels: ``abacus`` (suffix-scan cluster-merge trials of the
Abacus legalizer) and ``steiner`` (batched per-net RSMT construction on
a netlist-like degree mix).  Their speedups are regression-checked
against the committed baseline rather than floored.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick] [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro import kernels as vectorized

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from tests import kernels_oracle as reference

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

FULL = dict(
    demand_rects=150_000, demand_grid=128,
    rudy_nets=120_000, rudy_grid=128,
    density_cells=100_000, density_dim=256, density_fixed=616,
    maze_routes=40, maze_grid=64,
    abacus_clusters=600, abacus_trials=400,
    steiner_nets=20_000,
)
QUICK = dict(
    demand_rects=20_000, demand_grid=96,
    rudy_nets=15_000, rudy_grid=96,
    density_cells=15_000, density_dim=128, density_fixed=110,
    maze_routes=10, maze_grid=48,
    abacus_clusters=200, abacus_trials=80,
    steiner_nets=3_000,
)


def best_of(fn, repeats: int) -> float:
    wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        wall = min(wall, time.perf_counter() - start)
    return wall


def check_close(a, b, what: str) -> None:
    if not np.allclose(a, b, rtol=1e-9, atol=1e-9):
        raise AssertionError(f"{what}: kernel and loop disagree (max |d| = {abs(a - b).max()})")


def bench_demand(cfg, repeats):
    """RSMT-edge-like weighted rectangles on the Gcell grid."""
    rng = np.random.default_rng(0)
    g = cfg["demand_grid"]
    n = cfg["demand_rects"]
    x0 = rng.integers(0, g, n)
    x1 = np.minimum(x0 + rng.geometric(0.2, n).clip(max=40), g - 1)
    y0 = rng.integers(0, g, n)
    y1 = np.minimum(y0 + rng.geometric(0.2, n).clip(max=40), g - 1)
    w = 1.0 / (y1 - y0 + 1.0)  # the L-shape average-demand weight
    check_close(
        reference.rect_add(g, g, x0, x1, y0, y1, w),
        vectorized.rect_add(g, g, x0, x1, y0, y1, w),
        "demand",
    )
    return (
        best_of(lambda: reference.rect_add(g, g, x0, x1, y0, y1, w), max(repeats // 2, 1)),
        best_of(lambda: vectorized.rect_add(g, g, x0, x1, y0, y1, w), repeats),
    )


def bench_rudy(cfg, repeats):
    """Net-bbox rectangles with per-net 1/span weights."""
    rng = np.random.default_rng(1)
    g = cfg["rudy_grid"]
    n = cfg["rudy_nets"]
    x0 = rng.integers(0, g, n)
    x1 = np.minimum(x0 + rng.geometric(0.15, n).clip(max=g), g - 1)
    y0 = rng.integers(0, g, n)
    y1 = np.minimum(y0 + rng.geometric(0.15, n).clip(max=g), g - 1)
    w = 1.0 / (x1 - x0 + 1.0)
    check_close(
        reference.rect_add(g, g, x0, x1, y0, y1, w),
        vectorized.rect_add(g, g, x0, x1, y0, y1, w),
        "rudy",
    )
    return (
        best_of(lambda: reference.rect_add(g, g, x0, x1, y0, y1, w), max(repeats // 2, 1)),
        best_of(lambda: vectorized.rect_add(g, g, x0, x1, y0, y1, w), repeats),
    )


def bench_density(cfg, repeats):
    """The full charge-density map: movable bin overlap + fixed raster."""
    rng = np.random.default_rng(2)
    dim = cfg["density_dim"]
    n = cfg["density_cells"]
    bin_w, bin_h = 1.7, 1.9
    die_w, die_h = dim * bin_w, dim * bin_h
    # ePlace-smoothed movable extents (>= sqrt(2) bins), some wider.
    w_s = np.maximum(rng.uniform(1.0, 3.2, n), np.sqrt(2.0) * bin_w)
    h_s = np.maximum(rng.uniform(1.4, 2.1, n), np.sqrt(2.0) * bin_h)
    cx = rng.uniform(0.0, die_w, n)
    cy = rng.uniform(0.0, die_h, n)
    xlo = np.clip(cx - w_s / 2, 0.0, die_w)
    xhi = np.clip(cx + w_s / 2, 0.0, die_w)
    ylo = np.clip(cy - h_s / 2, 0.0, die_h)
    yhi = np.clip(cy + h_s / 2, 0.0, die_h)
    ix0 = np.floor(xlo / bin_w).astype(np.int64)
    iy0 = np.floor(ylo / bin_h).astype(np.int64)
    kx = int(np.ceil(w_s.max() / bin_w)) + 1
    ky = int(np.ceil(h_s.max() / bin_h)) + 1
    scale = rng.uniform(0.4, 1.0, n)
    # Fixed objects: macro blockages covering many bins + pad-sized cells.
    n_macro = max(cfg["density_fixed"] // 12, 1)
    n_pad = cfg["density_fixed"] - n_macro
    span = dim // 4
    fx0 = np.concatenate([
        rng.uniform(0.0, die_w * 0.8, n_macro), rng.uniform(0.0, die_w - 3, n_pad)
    ])
    fx1 = np.concatenate([
        np.clip(fx0[:n_macro] + rng.uniform(span, 2 * span, n_macro) * bin_w, 0, die_w),
        fx0[n_macro:] + rng.uniform(0.5, 2.5, n_pad),
    ])
    fy0 = np.concatenate([
        rng.uniform(0.0, die_h * 0.8, n_macro), rng.uniform(0.0, die_h - 3, n_pad)
    ])
    fy1 = np.concatenate([
        np.clip(fy0[:n_macro] + rng.uniform(span, 2 * span, n_macro) * bin_h, 0, die_h),
        fy0[n_macro:] + rng.uniform(0.5, 2.5, n_pad),
    ])

    def charge_map(mod):
        mov = mod.bin_overlap(
            xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale, dim, bin_w, bin_h
        )
        fix = mod.rect_area(fx0, fx1, fy0, fy1, dim, bin_w, bin_h)
        return mov + np.minimum(fix, bin_w * bin_h)

    check_close(charge_map(reference), charge_map(vectorized), "density")
    return (
        best_of(lambda: charge_map(reference), max(repeats // 2, 1)),
        best_of(lambda: charge_map(vectorized), repeats),
    )


def bench_maze(cfg, repeats):
    """A batch of congested window routes (history walls on the grid)."""
    rng = np.random.default_rng(3)
    g = cfg["maze_grid"]
    cost_h = 1.0 + 4.0 * rng.random((g, g))
    cost_v = 1.0 + 4.0 * rng.random((g, g))
    for _ in range(g // 8):  # congestion ridges that force detours
        cost_h[int(rng.integers(0, g)), :] += 300.0
        cost_v[:, int(rng.integers(0, g))] += 300.0
    segments = []
    while len(segments) < cfg["maze_routes"]:
        gx0, gy0, gx1, gy1 = (int(v) for v in rng.integers(0, g, 4))
        if (gx0, gy0) != (gx1, gy1):
            segments.append((gx0, gy0, gx1, gy1))

    def run_all(mod):
        return [
            mod.maze_search(
                gx0, gy0, gx1, gy1, cost_h, cost_v,
                max(min(gx0, gx1) - 8, 0), min(max(gx0, gx1) + 8, g - 1),
                max(min(gy0, gy1) - 8, 0), min(max(gy0, gy1) + 8, g - 1),
            )
            for gx0, gy0, gx1, gy1 in segments
        ]

    for ref_route, vec_route in zip(run_all(reference), run_all(vectorized)):
        assert (ref_route is None) == (vec_route is None)
        if ref_route is None:
            continue
        ref_cost = cost_h.ravel()[ref_route[0]].sum() + cost_v.ravel()[ref_route[1]].sum()
        vec_cost = cost_h.ravel()[vec_route[0]].sum() + cost_v.ravel()[vec_route[1]].sum()
        if abs(ref_cost - vec_cost) > 1e-6 * (1.0 + abs(ref_cost)):
            raise AssertionError(f"maze: path costs differ ({ref_cost} vs {vec_cost})")
    return (
        best_of(lambda: run_all(reference), max(repeats // 2, 1)),
        best_of(lambda: run_all(vectorized), repeats),
    )


def bench_abacus(cfg, repeats):
    """Deep cluster-merge trials on a fully packed Abacus row.

    A high-utilization row — clusters legalized back-to-back with no
    gaps — so every trial insertion cascades through the whole chain,
    the workload the suffix-scan formulation wins on.
    """
    rng = np.random.default_rng(4)
    n = cfg["abacus_clusters"]
    w = rng.uniform(1.0, 4.0, n)
    x = np.cumsum(w) - w
    xlo, xhi = 0.0, float(x[-1] + w[-1] + 50.0)
    e = rng.uniform(0.5, 3.0, n)
    q = e * (x + rng.uniform(-2.0, 2.0, n))
    trials = [
        (
            float(rng.uniform(1.0, 3.0)),           # width
            float(rng.uniform(0.5, 2.0)),           # weight
            float(rng.uniform(xlo, x[n // 4])),     # target_x, forces merges
        )
        for _ in range(cfg["abacus_trials"])
    ]

    def run_all(mod):
        return [
            mod.abacus_trial(e, q, w, x, n, xlo, xhi, xhi - xlo, tw, te, tx)
            for tw, te, tx in trials
        ]

    for ref_t, vec_t in zip(run_all(reference), run_all(vectorized)):
        assert (ref_t is None) == (vec_t is None)
        if ref_t is None:
            continue
        if abs(ref_t[0] - vec_t[0]) > 1e-6 or ref_t[1] != vec_t[1]:
            raise AssertionError(f"abacus: trials disagree ({ref_t} vs {vec_t})")
    return (
        best_of(lambda: run_all(reference), max(repeats // 2, 1)),
        best_of(lambda: run_all(vectorized), repeats),
    )


def bench_steiner(cfg, repeats):
    """Batched RSMT over a netlist-like degree mix (mostly 2-3 pins)."""
    rng = np.random.default_rng(5)
    n = cfg["steiner_nets"]
    # Typical netlists are dominated by 2-3 pin nets with a fanout tail.
    deg = np.clip(rng.geometric(0.55, n) + 1, 2, 12)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    total = int(start[-1])
    x = rng.integers(0, 512, total).astype(np.float64)
    y = rng.integers(0, 512, total).astype(np.float64)

    for ref_t, vec_t in zip(
        reference.steiner_batch(x, y, start, 64),
        vectorized.steiner_batch(x, y, start, 64),
    ):
        for a, b in zip(ref_t, vec_t):
            if not np.array_equal(a, b):
                raise AssertionError("steiner: kernel and loop disagree")
    return (
        best_of(lambda: reference.steiner_batch(x, y, start, 64), max(repeats // 2, 1)),
        best_of(lambda: vectorized.steiner_batch(x, y, start, 64), repeats),
    )


BENCHES = {
    "demand": bench_demand,
    "rudy": bench_rudy,
    "density": bench_density,
    "maze": bench_maze,
    "abacus": bench_abacus,
    "steiner": bench_steiner,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-mode sizes (CI nightly); records quick=true in the report",
    )
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "BENCH_kernels.json"))
    args = parser.parse_args(argv)
    cfg = QUICK if args.quick else FULL

    report = {
        "bench": "kernels",
        "quick": bool(args.quick),
        "repeats": args.repeats,
        "config": dict(cfg),
    }
    for name, bench in BENCHES.items():
        ref_wall, vec_wall = bench(cfg, args.repeats)
        report[f"{name}_reference_seconds"] = round(ref_wall, 5)
        report[f"{name}_vectorized_seconds"] = round(vec_wall, 5)
        report[f"{name}_speedup"] = round(ref_wall / max(vec_wall, 1e-12), 2)
        print(
            f"{name:8s} reference {ref_wall * 1e3:8.1f} ms   "
            f"vectorized {vec_wall * 1e3:8.1f} ms   "
            f"{report[f'{name}_speedup']:6.2f}x"
        )

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
