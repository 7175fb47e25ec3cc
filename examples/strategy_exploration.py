"""Bayesian strategy exploration (paper Sec. III-C) end to end.

Follows the paper's protocol: explore the strategy-parameter space with
SMBO/TPE on a *small design with the routability problem*, then apply the
resulting (midpoint-of-range) configuration to larger benchmarks and
compare against the hand-set defaults.

The evaluation objective is the total overflow ratio (HOF + VOF) of a
full PUFFER placement scored by the global router — an expensive black
box, which is exactly why the paper uses SMBO instead of grid search.

Run (takes a few minutes):
    python examples/strategy_exploration.py [budget]
"""

import sys

from repro.benchgen import EXPLORATION_DESIGN, make_design
from repro.core import PufferPlacer, StrategyParams
from repro.core.exploration import PlacementObjective, strategy_exploration
from repro.placer import PlacementParams
from repro.router import GlobalRouter


def evaluate(design_name: str, scale: float, strategy: StrategyParams) -> float:
    design = make_design(design_name, scale)
    PufferPlacer(
        design, strategy=strategy, placement=PlacementParams(max_iters=700)
    ).run()
    return GlobalRouter(design).run().total_overflow


def main() -> None:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 12

    explore_scale = 0.008  # small but genuinely congested (Sec. III-C)
    evaluations = {"count": 0}
    base_objective = PlacementObjective(
        lambda: make_design(EXPLORATION_DESIGN, explore_scale),
        placement=PlacementParams(max_iters=700),
    )

    def objective(params: dict) -> float:
        evaluations["count"] += 1
        loss = base_objective(params)
        strategy = StrategyParams.from_dict(params)
        print(
            f"  eval {evaluations['count']:3d}: loss {loss:7.3f}  "
            f"(mu={strategy.mu:.2f} beta={strategy.beta:.2f} "
            f"tau={strategy.tau:.2f} xi={strategy.xi})"
        )
        return loss

    print(f"== exploring on {EXPLORATION_DESIGN}@{explore_scale:g} ==")
    report = strategy_exploration(
        objective,
        global_evals=budget,
        group_evals=max(budget // 3, 3),
        patience=max(budget // 3, 3),
        max_group_rounds=1,
        rng=7,
    )
    print(f"\nexploration done: {report.evaluations} evaluations")
    print(f"best objective seen: {report.best_loss:.3f}%")
    print("final configuration (range midpoints):")
    for name in ("mu", "beta", "tau", "eta", "pu_low", "pu_high", "xi", "theta"):
        print(f"  {name:10s} = {getattr(report.params, name)}")

    print("\n== transfer to larger designs ==")
    for name in ("MEDIA_SUBSYS", "CT_SCAN"):
        default_loss = evaluate(name, 0.003, StrategyParams())
        explored_loss = evaluate(name, 0.003, report.params)
        print(
            f"{name:<16} default {default_loss:7.3f}%   "
            f"explored {explored_loss:7.3f}%"
        )


if __name__ == "__main__":
    main()
