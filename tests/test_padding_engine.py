"""Tests for the padding engine (Eqs. 14-16, Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    FEATURE_NAMES,
    CongestionEstimator,
    FeatureExtractor,
    PaddingEngine,
    StrategyParams,
)
from repro.core.features import FeatureSet


def synthetic_features(design, hot_fraction=0.2, magnitude=3.0):
    """Features that mark the first ``hot_fraction`` of cells congested."""
    n = design.num_cells
    values = {name: np.zeros(n) for name in FEATURE_NAMES}
    hot = int(n * hot_fraction)
    values["local_cg"][:hot] = magnitude
    values["around_cg"][:hot] = magnitude
    return FeatureSet(values)


class TestEquation14:
    def test_no_padding_below_threshold(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams())
        features = synthetic_features(small_design, hot_fraction=0.0)
        pad = engine.compute_padding(features)
        assert (pad == 0).all()

    def test_hot_cells_padded(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams())
        features = synthetic_features(small_design, hot_fraction=0.3)
        pad = engine.compute_padding(features)
        movable = small_design.movable & ~small_design.is_macro
        hot = movable.copy()
        hot[int(small_design.num_cells * 0.3):] = False
        assert (pad[hot] > 0).all()
        cold = movable & ~hot
        assert (pad[cold] == 0).all()

    def test_mu_scales_padding(self, small_design):
        features = synthetic_features(small_design)
        a = PaddingEngine(small_design, StrategyParams(mu=1.0)).compute_padding(features)
        b = PaddingEngine(small_design, StrategyParams(mu=2.0)).compute_padding(features)
        assert np.allclose(b, 2 * a)

    def test_log_smoothing_sublinear(self, small_design):
        small = PaddingEngine(small_design, StrategyParams()).compute_padding(
            synthetic_features(small_design, magnitude=2.0)
        )
        large = PaddingEngine(small_design, StrategyParams()).compute_padding(
            synthetic_features(small_design, magnitude=20.0)
        )
        hot = small > 0
        assert (large[hot] < 10 * small[hot]).all()

    def test_fixed_cells_never_padded(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams())
        features = synthetic_features(small_design, hot_fraction=1.0)
        pad = engine.compute_padding(features)
        assert (pad[~small_design.movable] == 0).all()

    def test_hand_computed_weights(self, tiny_design):
        """Eq. (14), ``Pad(c) = log(max(sum_i alpha_i f_i + beta, 1)) * mu``,
        worked by hand with alphas (1, 0.5, 0.25, 0, 0.125), beta = -1,
        mu = 2 and features in FEATURE_NAMES order:

        * cell 1, f = (2, 2, 4, 9, 8): score = 2 + 1 + 1 + 0 + 1 - 1 = 4,
          so Pad = 2 ln 4;
        * cell 2, f = (1.5, 0, 0, 0, 0): score = 0.5 < 1, so Pad = 0;
        * cell 3, f = (0, 0, 0, 0, 24): score = 3 - 1 = 2, so Pad = 2 ln 2;
        * cell 0 is the fixed IO: Pad = 0 whatever its features.
        """
        params = StrategyParams(
            alpha_local_cg=1.0, alpha_local_pin=0.5, alpha_around_cg=0.25,
            alpha_around_pin=0.0, alpha_pin_cg=0.125, beta=-1.0, mu=2.0,
        )
        n = tiny_design.num_cells
        values = {name: np.zeros(n) for name in FEATURE_NAMES}
        for name, f1, f2, f3 in zip(
            FEATURE_NAMES, (2, 2, 4, 9, 8), (1.5, 0, 0, 0, 0), (0, 0, 0, 0, 24)
        ):
            values[name][[0, 1, 2, 3]] = (50.0, f1, f2, f3)
        pad = PaddingEngine(tiny_design, params).compute_padding(FeatureSet(values))
        assert not tiny_design.movable[0]
        assert pad[:4] == pytest.approx([0.0, 2 * np.log(4), 0.0, 2 * np.log(2)])
        assert not pad[4:].any()


class TestEquation15Recycling:
    def test_recycle_rate_formula(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams(zeta=2.0))
        engine.round_index = 4
        engine.pad_times[:] = 1
        rate = engine.recycle_rate()
        assert rate[0] == pytest.approx((4 - 1) / (4 + 2.0))

    def test_never_padded_cells_recycle_fastest(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams())
        engine.round_index = 5
        engine.pad_times[0] = 0
        engine.pad_times[1] = 5
        rate = engine.recycle_rate()
        assert rate[0] > rate[1]

    def test_padding_withdrawn_when_cell_cools(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams())
        hot_then_cold = synthetic_features(small_design, hot_fraction=0.3)
        engine.run_round(hot_then_cold)
        padded_before = engine.pad.copy()
        cold = synthetic_features(small_design, hot_fraction=0.0)
        engine.run_round(cold)
        previously_padded = padded_before > 0
        assert (engine.pad[previously_padded] < padded_before[previously_padded]).all()


class TestEquation16Utilization:
    def test_schedule_interpolates(self, small_design):
        params = StrategyParams(pu_low=0.1, pu_high=0.5, xi=5)
        engine = PaddingEngine(small_design, params)
        engine.round_index = 1
        assert engine.target_utilization() == pytest.approx(0.1)
        engine.round_index = 5
        assert engine.target_utilization() == pytest.approx(0.5)
        engine.round_index = 3
        assert engine.target_utilization() == pytest.approx(0.3)

    def test_xi_one_uses_high(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams(xi=1))
        engine.round_index = 1
        assert engine.target_utilization() == StrategyParams().pu_high

    def test_budget_enforced(self, small_design):
        params = StrategyParams(pu_low=0.05, pu_high=0.1, mu=10.0)
        engine = PaddingEngine(small_design, params)
        record = engine.run_round(synthetic_features(small_design, hot_fraction=1.0, magnitude=50.0))
        assert record.scaled
        assert record.utilization <= engine.target_utilization() + 1e-9

    def test_incremental_accumulation(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams(pu_high=0.9))
        features = synthetic_features(small_design, hot_fraction=0.1, magnitude=2.0)
        r1 = engine.run_round(features)
        r2 = engine.run_round(features)
        assert r2.total_area >= r1.total_area

    def test_history_recorded(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams())
        engine.run_round(synthetic_features(small_design))
        engine.run_round(synthetic_features(small_design))
        assert len(engine.history) == 2
        assert engine.history[0].round_index == 1

    def test_padded_sizes_only_widths_change(self, small_design):
        engine = PaddingEngine(small_design, StrategyParams())
        engine.run_round(synthetic_features(small_design))
        w_eff, h_eff = engine.padded_sizes()
        assert np.array_equal(h_eff, small_design.h)
        assert (w_eff >= small_design.w).all()


class TestEndToEndPadding:
    def test_real_features_produce_bounded_padding(self, placed_small_design):
        est = CongestionEstimator(placed_small_design)
        cmap, topologies, _ = est.estimate()
        features = FeatureExtractor(placed_small_design).extract(cmap, topologies)
        engine = PaddingEngine(placed_small_design, StrategyParams())
        record = engine.run_round(features)
        assert record.total_area <= engine.available_area
        assert (engine.pad >= 0).all()
