"""Integration tests for the global router."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placer import GlobalPlacer, PlacementParams
from repro.router import DemandMaps, GlobalRouter, RouterParams, RoutingGrid
from repro.router.router import select_victims

from .router_oracle import select_victims_loop


@pytest.fixture(scope="module")
def routed(placed_small_design):
    report = GlobalRouter(placed_small_design).run()
    return placed_small_design, report


class TestGlobalRouter:
    def test_report_fields(self, routed):
        _, report = routed
        assert report.hof >= 0 and report.vof >= 0
        assert report.wirelength > 0
        assert report.num_segments > 0
        assert report.runtime > 0

    def test_demand_positive_where_pins(self, routed):
        design, report = routed
        assert report.demand.dmd_h.sum() > 0
        assert report.demand.dmd_v.sum() > 0

    def test_wirelength_lower_bound(self, routed):
        """Routed WL can't be below HPWL divided by a topology factor."""
        design, report = routed
        assert report.wirelength > 0.3 * design.hpwl()

    def test_overflow_history_recorded(self, routed):
        _, report = routed
        assert len(report.overflow_history) >= 1

    def test_rrr_does_not_increase_overflow_much(self, routed):
        _, report = routed
        first = sum(report.overflow_history[0])
        last = sum(report.overflow_history[-1])
        assert last <= first + 1.0

    def test_deterministic(self, placed_small_design):
        a = GlobalRouter(placed_small_design).run()
        b = GlobalRouter(placed_small_design).run()
        assert a.hof == b.hof
        assert a.vof == b.vof
        assert a.wirelength == b.wirelength

    def test_pin_demand_disabled(self, placed_small_design):
        with_pins = GlobalRouter(
            placed_small_design, RouterParams(pin_demand=0.2, rrr_rounds=0)
        ).run()
        without = GlobalRouter(
            placed_small_design, RouterParams(pin_demand=0.0, rrr_rounds=0)
        ).run()
        assert with_pins.demand.dmd_h.sum() > without.demand.dmd_h.sum()

    def test_clustered_worse_than_spread(self, small_design):
        """A placement collapsed to the center must route worse."""
        GlobalPlacer(small_design, PlacementParams(max_iters=300)).run()
        spread = GlobalRouter(small_design).run()
        mov = small_design.movable
        small_design.x[mov] = small_design.die.center.x
        small_design.y[mov] = small_design.die.center.y
        clustered = GlobalRouter(small_design).run()
        assert (
            clustered.hof + clustered.vof
            > spread.hof + spread.vof
        )

    def test_via_count_positive(self, routed):
        _, report = routed
        # Any nontrivial design routes some L shapes, hence vias.
        assert report.via_count > 0
        assert report.via_count <= report.num_segments * 40

    def test_total_overflow_property(self, routed):
        _, report = routed
        assert report.total_overflow == pytest.approx(report.hof + report.vof)

    def test_summary_string(self, routed):
        _, report = routed
        text = report.summary()
        assert "HOF" in text and "VOF" in text and "WL" in text


class TestSelectVictims:
    """Scoring only routes through hot Gcells keeps the scored loop's
    victim list and order."""

    @given(seed=st.integers(0, 2**32 - 1), ties=st.booleans(),
           windowed=st.booleans(), baselined=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_scoring_every_route(self, seed, ties, windowed, baselined):
        rng = np.random.default_rng(seed)
        nx, ny = (int(n) for n in rng.integers(1, 10, size=2))
        cap_h = rng.integers(0, 4, (nx, ny)).astype(float)
        cap_v = rng.integers(0, 4, (nx, ny)).astype(float)
        grid = RoutingGrid(nx, ny, 1.0, 1.0, 0.0, 0.0, cap_h, cap_v)
        if ties:  # integer demand: many equal scores and exact zeros
            dmd = [rng.integers(0, 6, (nx, ny)).astype(float) for _ in "hv"]
        else:
            dmd = [4.0 * rng.random((nx, ny)) for _ in "hv"]
        demand = DemandMaps(*dmd)
        routes = []
        for _ in range(int(rng.integers(0, 40))):
            if rng.random() < 0.1:
                routes.append(None)
                continue
            routes.append(tuple(
                np.unique(rng.integers(0, nx * ny, int(rng.integers(0, 6))))
                for _ in "hv"
            ))
        window = None
        if windowed:
            window = tuple(int(v) for v in rng.integers(-1, 10, size=4))
        baseline = None
        if baselined:
            baseline = (rng.random((nx, ny)) - 0.3, rng.random((nx, ny)) - 0.3)
        got = select_victims(routes, grid, demand, window, baseline)
        want = select_victims_loop(routes, grid, demand, window, baseline)
        assert got == want
