"""A4 — strategy exploration and transfer (paper Sec. III-C protocol).

The paper explores strategy parameters on *a small design with the
routability problem* and applies the resulting configuration to the
large benchmarks.  This bench runs a compact exploration (Algorithms 2-3,
objective: total overflow of a PUFFER placement routed by the evaluator)
on a small OR1200 instance, then compares the explored configuration
against the hand-set defaults on other designs.
"""

from repro.benchgen import EXPLORATION_DESIGN, make_design
from repro.core import PufferPlacer, StrategyParams
from repro.core.exploration import PlacementObjective, strategy_exploration
from repro.placer import PlacementParams
from repro.router import GlobalRouter

from conftest import save_artifact

#: The exploration design must actually exhibit the routability problem
#: (Sec. III-C explores on "a small design with the routability
#: problem"); OR1200 at twice the benchmark scale is small but congested.
EXPLORE_SCALE = 0.008
TRANSFER_DESIGNS = ["MEDIA_SUBSYS", "OPENC910"]


def _evaluate(design_name, scale, strategy, placement) -> float:
    design = make_design(design_name, scale)
    PufferPlacer(design, strategy=strategy, placement=placement).run()
    return GlobalRouter(design).run().total_overflow


def test_exploration_transfer(benchmark, scale, out_dir):
    placement = PlacementParams(max_iters=700)
    objective = PlacementObjective(
        lambda: make_design(EXPLORATION_DESIGN, EXPLORE_SCALE),
        placement=placement,
    )

    def run_all():
        report = strategy_exploration(
            objective,
            global_evals=12,
            group_evals=5,
            patience=4,
            max_group_rounds=1,
            rng=7,
        )
        rows = []
        for name in TRANSFER_DESIGNS:
            default_loss = _evaluate(name, scale, StrategyParams(), placement)
            explored_loss = _evaluate(name, scale, report.params, placement)
            rows.append((name, default_loss, explored_loss))
        return report, rows

    report, rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "ABLATION A4  strategy exploration transfer",
        f"explored on {EXPLORATION_DESIGN}@{EXPLORE_SCALE:g}: "
        f"{report.evaluations} evaluations, best objective "
        f"{report.best_loss:.3f}",
        f"final configuration: mu={report.params.mu:.2f} "
        f"beta={report.params.beta:.2f} tau={report.params.tau:.2f} "
        f"xi={report.params.xi} pu=[{report.params.pu_low:.2f},"
        f"{report.params.pu_high:.2f}] legalizer={report.params.legalizer}",
        "",
        f"{'design':<16}{'default total OF':>17}{'explored total OF':>19}",
    ]
    for name, default_loss, explored_loss in rows:
        lines.append(f"{name:<16}{default_loss:>17.3f}{explored_loss:>19.3f}")
    text = "\n".join(lines)
    print()
    print(text)
    save_artifact(out_dir, "exploration_transfer.txt", text)

    # Transfer must be sane: the explored configuration stays within 2x
    # of the defaults on every transfer design (the paper's point is
    # that exploration replaces manual tuning, not that it wins by
    # miracle margins on every design).
    for name, default_loss, explored_loss in rows:
        assert explored_loss <= max(default_loss * 2.0, default_loss + 2.0)
