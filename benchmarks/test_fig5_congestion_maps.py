"""E3 — Figure 5: congestion maps of MEDIA_SUBSYS for the three placers.

Regenerates the paper's side-by-side horizontal and vertical congestion
maps reported by the evaluation router for the placements of the
commercial substitute, the RePlAce-like flow, and PUFFER.  ASCII heatmaps
are printed; PGM images are written under ``benchmarks/out/``.
"""

import os


from repro import api
from repro.baselines import place_commercial_like, place_replace_like
from repro.benchgen import make_design
from repro.evalkit import side_by_side, utilization_maps, write_pgm
from repro.placer import PlacementParams
from repro.router import GlobalRouter

from conftest import save_artifact

FLOWS = [
    ("Commercial_Inn*", place_commercial_like),
    ("RePlAce-like", place_replace_like),
    ("PUFFER", api.flow_puffer),
]


def test_fig5_congestion_maps(benchmark, scale, out_dir):
    placement = PlacementParams(max_iters=900)

    def run_all():
        reports = {}
        for name, flow in FLOWS:
            design = make_design("MEDIA_SUBSYS", scale)
            flow(design, placement)
            reports[name] = GlobalRouter(design).run()
        return reports

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    h_maps = {}
    v_maps = {}
    for name, report in reports.items():
        util_h, util_v = utilization_maps(report)
        h_maps[name] = util_h
        v_maps[name] = util_v
        stem = name.replace("*", "").replace("-", "_").lower()
        write_pgm(os.path.join(out_dir, f"fig5_{stem}_h.pgm"), util_h, vmax=1.5)
        write_pgm(os.path.join(out_dir, f"fig5_{stem}_v.pgm"), util_v, vmax=1.5)

    text = "\n".join(
        [
            "FIGURE 5  MEDIA_SUBSYS congestion maps (router utilization)",
            "",
            "(a-c) horizontal:",
            side_by_side(h_maps, vmax=1.5, width=30),
            "",
            "(d-f) vertical:",
            side_by_side(v_maps, vmax=1.5, width=30),
            "",
            "overflow summary:",
        ]
        + [
            f"  {name:16s} HOF {r.hof:6.2f}%  VOF {r.vof:6.2f}%"
            for name, r in reports.items()
        ]
    )
    print()
    print(text)
    save_artifact(out_dir, "fig5_congestion_maps.txt", text)

    # Paper shape: PUFFER's maps carry the least overflow of the three.
    puffer = reports["PUFFER"]
    replace = reports["RePlAce-like"]
    assert puffer.hof <= replace.hof + 0.25
    assert puffer.total_overflow <= replace.total_overflow + 0.5
