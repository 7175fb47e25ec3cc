"""E8 (extension) — detailed placement on top of the PUFFER flow.

The paper stops at legalization; this extension measures what a
legality-preserving detailed-placement pass (global swap + intra-row
reordering, padding-footprint aware) adds on top of each flow.
"""

from repro.benchgen import make_design
from repro.core import PufferPlacer
from repro.dplace import DetailedPlacer
from repro.legalizer import padded_widths
from repro.placer import PlacementParams
from repro.router import GlobalRouter
from repro.verify import VerifyContext, run_checkers

from conftest import save_artifact


def test_extension_detailed_placement(benchmark, scale, out_dir):
    design = make_design("OR1200", scale)
    placer = PufferPlacer(design, placement=PlacementParams(max_iters=900))
    placer.run()
    before_route = GlobalRouter(design).run()
    hpwl_before = design.hpwl()

    widths = padded_widths(
        design,
        placer.optimizer.padding.pad,
        theta=placer.strategy.theta,
        area_cap=placer.strategy.legal_area_cap,
    )

    result = benchmark.pedantic(
        lambda: DetailedPlacer(design, widths=widths).run(passes=2),
        rounds=1,
        iterations=1,
    )
    after_route = GlobalRouter(design).run()

    lines = [
        "EXTENSION E8  detailed placement after PUFFER",
        f"HPWL: {hpwl_before:.6g} -> {design.hpwl():.6g} "
        f"({result.improvement * 100:.2f}% better)",
        f"moves: {result.swaps} swaps, {result.reorders} reorders "
        f"in {result.passes} passes ({result.runtime:.1f}s)",
        f"routed: {before_route.summary()}",
        f"     -> {after_route.summary()}",
    ]
    text = "\n".join(lines)
    print()
    print(text)
    save_artifact(out_dir, "ext_detailed_place.txt", text)

    assert run_checkers(VerifyContext(design=design)).ok
    assert design.hpwl() <= hpwl_before + 1e-6
    # Detailed placement must not wreck routability.
    assert after_route.total_overflow <= before_route.total_overflow + 1.0
