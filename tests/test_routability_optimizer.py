"""Tests for the routability optimizer hook and the PUFFER flow."""

import pytest

from repro.core import PufferPlacer, RoutabilityOptimizer, StrategyParams
from repro.placer import PlacementParams
from repro.verify import VerifyContext, run_checkers


class FakeState:
    """Minimal PlacerState stand-in for trigger-logic tests."""

    def __init__(self, iteration, overflow):
        self.iteration = iteration
        self.overflow = overflow
        self.sizes = None

    def set_density_sizes(self, w, h):
        self.sizes = (w, h)


class TestTriggerConditions:
    def test_high_overflow_blocks(self, small_design):
        opt = RoutabilityOptimizer(small_design, StrategyParams(tau=0.25))
        assert not opt.should_fire(FakeState(100, overflow=0.5))

    def test_low_overflow_fires(self, small_design):
        opt = RoutabilityOptimizer(small_design, StrategyParams(tau=0.25))
        assert opt.should_fire(FakeState(100, overflow=0.1))

    def test_xi_caps_rounds(self, small_design):
        opt = RoutabilityOptimizer(small_design, StrategyParams(tau=0.25, xi=2))
        opt.calls = 2
        assert not opt.should_fire(FakeState(100, overflow=0.1))

    def test_min_gap_enforced(self, small_design):
        opt = RoutabilityOptimizer(small_design, StrategyParams(), min_gap=10)
        opt.last_call_iteration = 95
        assert not opt.should_fire(FakeState(100, overflow=0.1))
        assert opt.should_fire(FakeState(106, overflow=0.1))

    def test_eta_blocks_while_growing(self, small_design):
        opt = RoutabilityOptimizer(small_design, StrategyParams(eta=0.05))
        state = FakeState(100, overflow=0.1)
        assert opt(state)  # first round always allowed
        # A large added_fraction (> eta) must block the next round.
        if opt.padding.history[-1].added_fraction >= 0.05:
            assert not opt.should_fire(FakeState(200, overflow=0.1))


class TestOptimizerEffect:
    def test_fire_pads_and_installs_sizes(self, placed_small_design):
        opt = RoutabilityOptimizer(placed_small_design, StrategyParams())
        state = FakeState(50, overflow=0.1)
        fired = opt(state)
        assert fired
        assert state.sizes is not None
        w_eff, h_eff = state.sizes
        assert (w_eff >= placed_small_design.w - 1e-12).all()
        assert opt.calls == 1
        assert len(opt.events) == 1
        assert opt.last_map is not None


class TestPufferFlow:
    @pytest.fixture(scope="class")
    def result_and_design(self, small_spec):
        from repro.benchgen import generate_design

        design = generate_design(small_spec)
        placer = PufferPlacer(
            design, placement=PlacementParams(max_iters=400)
        )
        return placer.run(), design, placer

    def test_final_placement_legal(self, result_and_design):
        _, design, _ = result_and_design
        assert run_checkers(VerifyContext(design=design)).ok

    def test_rounds_ran(self, result_and_design):
        result, _, _ = result_and_design
        assert 1 <= result.padding_rounds <= StrategyParams().xi

    def test_events_trace_flow_stages(self, result_and_design):
        result, _, _ = result_and_design
        stages = [e.stage for e in result.events]
        assert stages[0] == "global_placement"
        assert "legalization" in stages
        assert "routability_optimization" in stages

    def test_padding_carried_into_legalization(self, result_and_design):
        result, _, placer = result_and_design
        assert result.total_padding_area > 0
        assert placer.optimizer.padding.total_padding_area > 0

    def test_hpwl_positive_and_runtime_recorded(self, result_and_design):
        result, _, _ = result_and_design
        assert result.hpwl > 0
        assert result.runtime > 0

    def test_tetris_strategy_choice(self, small_design):
        strategy = StrategyParams(legalizer="tetris", xi=2)
        result = PufferPlacer(
            small_design, strategy=strategy, placement=PlacementParams(max_iters=300)
        ).run()
        assert run_checkers(VerifyContext(design=small_design)).ok
