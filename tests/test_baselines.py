"""Tests for the comparison flows (WL-driven, RePlAce-like, commercial)."""

import numpy as np

from repro.baselines import (
    CommercialLikeParams,
    ReplaceLikeParams,
    place_commercial_like,
    place_replace_like,
    place_wirelength_driven,
)
from repro.placer import PlacementParams
from repro.router import RouterParams
from repro.verify import VerifyContext, run_checkers

FAST = PlacementParams(max_iters=300)


class TestWirelengthDriven:
    def test_legal_result(self, small_design):
        result = place_wirelength_driven(small_design, FAST)
        assert run_checkers(VerifyContext(design=small_design)).ok
        assert result.placer == "wirelength"
        assert result.hpwl > 0
        assert result.inflation_rounds == 0


class TestReplaceLike:
    def test_legal_result_and_inflation(self, small_design):
        result = place_replace_like(small_design, FAST)
        assert run_checkers(VerifyContext(design=small_design)).ok
        assert result.placer == "replace_like"
        assert 0 <= result.inflation_rounds <= ReplaceLikeParams().rounds
        assert result.notes["mean_inflation"] >= 1.0

    def test_inflation_budget_respected(self, small_design):
        params = ReplaceLikeParams(area_budget=0.01, rounds=1)
        place_replace_like(small_design, FAST, params)
        # With a tiny budget the flow must still finish legally.
        assert run_checkers(VerifyContext(design=small_design)).ok

    def test_zero_rounds_equals_wirelength_flow(self, small_spec):
        from repro.benchgen import generate_design

        a = generate_design(small_spec)
        b = generate_design(small_spec)
        place_wirelength_driven(a, FAST)
        place_replace_like(b, FAST, ReplaceLikeParams(rounds=0))
        assert np.allclose(a.x, b.x)
        assert np.allclose(a.y, b.y)


class TestCommercialLike:
    def test_legal_result(self, small_design):
        params = CommercialLikeParams(
            rounds=1, router=RouterParams(rrr_rounds=0)
        )
        result = place_commercial_like(small_design, FAST, params)
        assert run_checkers(VerifyContext(design=small_design)).ok
        assert result.placer == "commercial_like"
        assert result.inflation_rounds >= 0

    def test_router_feedback_rounds_bounded(self, small_design):
        params = CommercialLikeParams(
            rounds=2, router=RouterParams(rrr_rounds=0)
        )
        result = place_commercial_like(small_design, FAST, params)
        assert result.inflation_rounds <= 2

    def test_slower_than_wirelength(self, small_spec):
        from repro.benchgen import generate_design

        a = generate_design(small_spec)
        b = generate_design(small_spec)
        wl = place_wirelength_driven(a, FAST)
        commercial = place_commercial_like(b, FAST)
        assert commercial.runtime > wl.runtime
