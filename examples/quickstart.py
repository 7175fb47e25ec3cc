"""Quickstart: place a design with PUFFER and evaluate its routability.

Generates a small congested design, runs the full PUFFER flow (global
placement with multi-feature cell padding, then white-space-assisted
legalization), routes the result with the evaluation global router, and
prints the key metrics alongside a wirelength-driven baseline.

Run:
    python examples/quickstart.py [scale]
"""

import sys

from repro.baselines import place_wirelength_driven
from repro.benchgen import make_design
from repro.core import PufferPlacer
from repro.evalkit import convergence_chart
from repro.placer import PlacementParams
from repro.router import GlobalRouter
from repro.verify import VerifyContext, run_checkers


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.004
    placement = PlacementParams(max_iters=900)

    print(f"== generating OR1200 at scale {scale:g} ==")
    baseline_design = make_design("OR1200", scale)
    print(baseline_design)

    print("\n== wirelength-driven baseline ==")
    baseline = place_wirelength_driven(baseline_design, placement)
    baseline_route = GlobalRouter(baseline_design).run()
    print(f"HPWL {baseline.hpwl:.4g}   {baseline_route.summary()}")

    print("\n== PUFFER ==")
    design = make_design("OR1200", scale)
    result = PufferPlacer(design, placement=placement).run()
    for event in result.events:
        print(f"  [{event.time:5.1f}s] {event.stage}: {event.detail}")
    report = GlobalRouter(design).run()
    legality = run_checkers(VerifyContext(design=design))
    print(f"legal: {legality.ok}")
    print(f"HPWL {result.hpwl:.4g}   {report.summary()}")
    print("\nengine convergence:")
    print(convergence_chart(result.global_place.history))

    print("\n== comparison ==")
    print(
        f"overflow (H+V): baseline {baseline_route.total_overflow:.3f}% "
        f"-> PUFFER {report.total_overflow:.3f}%"
    )
    print(
        f"wirelength cost: {100 * (result.hpwl / baseline.hpwl - 1):+.1f}% HPWL "
        f"for the routability gain"
    )


if __name__ == "__main__":
    main()
