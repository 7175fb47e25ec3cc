"""Compare the three Table-II flows on one congested design.

Runs the commercial substitute, the RePlAce-like flow, and PUFFER on the
same benchmark (fresh copies each), routes every result, and prints a
one-design slice of Table II plus side-by-side congestion heatmaps — a
miniature of the paper's Fig. 5 workflow.

Run:
    python examples/compare_placers.py [design] [scale]
"""

import sys

from repro import api
from repro.baselines import place_commercial_like, place_replace_like
from repro.benchgen import make_design, suite_names
from repro.evalkit import side_by_side, utilization_maps
from repro.placer import PlacementParams
from repro.router import GlobalRouter


def main() -> None:
    design_name = sys.argv[1] if len(sys.argv) > 1 else "MEDIA_SUBSYS"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.004
    if design_name not in suite_names():
        raise SystemExit(f"unknown design {design_name!r}; pick from {suite_names()}")
    placement = PlacementParams(max_iters=900)

    flows = [
        ("Commercial_Inn*", place_commercial_like),
        ("RePlAce-like", place_replace_like),
        ("PUFFER", api.flow_puffer),
    ]
    print(f"{'placer':<18}{'HOF(%)':>8}{'VOF(%)':>8}{'WL':>12}{'RT(s)':>8}")
    v_maps = {}
    for name, flow in flows:
        design = make_design(design_name, scale)
        result = flow(design, placement)
        report = GlobalRouter(design).run()
        print(
            f"{name:<18}{report.hof:>8.2f}{report.vof:>8.2f}"
            f"{report.wirelength:>12.4g}{result.runtime:>8.1f}"
        )
        _, util_v = utilization_maps(report)
        v_maps[name] = util_v

    print(f"\nvertical routing utilization ({design_name}):")
    print(side_by_side(v_maps, vmax=1.5, width=26))


if __name__ == "__main__":
    main()
