"""Tests for the packaged exploration objective."""

import pytest

from repro.benchgen import make_design
from repro.core import StrategyParams, default_space
from repro.core.exploration import PlacementObjective
from repro.placer import PlacementParams


@pytest.fixture(scope="module")
def objective():
    return PlacementObjective(
        lambda: make_design("OR1200", 0.002),
        placement=PlacementParams(max_iters=250),
    )


class TestPlacementObjective:
    def test_returns_finite_loss(self, objective):
        params = default_space().midpoint()
        loss = objective(params)
        assert loss == loss  # not NaN
        assert loss < 1e6

    def test_wirelength_tiebreak_orders_overpadding(self):
        """When overflow is zero everywhere, an over-padding config must
        score worse than a lean one via the wirelength term."""
        objective = PlacementObjective(
            lambda: make_design("ASIC_ENTITY", 0.002),
            placement=PlacementParams(max_iters=250),
            wl_weight=0.05,
        )
        lean = {
            f: getattr(StrategyParams(), f)
            for f in ("mu", "beta", "pu_low", "pu_high")
        }
        fat = dict(lean)
        fat.update(beta=1.0, mu=4.0, pu_low=0.3, pu_high=0.6)
        loss_lean = objective(lean)
        loss_fat = objective(fat)
        assert loss_fat > loss_lean

    def test_deterministic_given_params(self, objective):
        params = default_space().midpoint()
        assert objective(params) == objective(params)

    def test_choice_midpoint_override(self):
        """Exploration must carry the best-observed categorical value
        into the final configuration, not the arbitrary 'midpoint'."""
        from repro.core.exploration import strategy_exploration

        def loss(params):
            # abacus is strictly better in this synthetic objective.
            return (0.0 if params["legalizer"] == "abacus" else 5.0) + (
                params["mu"] - 2.0
            ) ** 2

        report = strategy_exploration(
            loss, global_evals=15, group_evals=5, patience=5,
            max_group_rounds=1, rng=3,
        )
        assert report.params.legalizer == "abacus"
