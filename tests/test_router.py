"""Integration tests for the global router."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.router.router as router_module
from repro.placer import GlobalPlacer, PlacementParams
from repro.router import (
    CostModel,
    CostParams,
    DemandMaps,
    GlobalRouter,
    RouterParams,
    RoutingGrid,
)
from repro.router.router import (
    commit_route,
    rip_routes,
    route_length_and_vias,
    select_victims,
    sum_route_terms,
    wirelength_and_vias,
)

from .router_oracle import (
    commit_route_numpy,
    rip_routes_sequential,
    select_victims_loop,
    wirelength_and_vias_loop,
)


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


def _random_cost_state(rng):
    """A cost model on a small grid with zero-capacity cells,
    fractional (pin-like) demand, non-zero history and random knobs."""
    nx, ny = (int(n) for n in rng.integers(1, 10, size=2))
    caps = [
        rng.integers(0, 4, (nx, ny)) * rng.choice([1.0, 0.7, 2.5], (nx, ny))
        for _ in "hv"
    ]
    grid = RoutingGrid(nx, ny, 1.0, 1.0, 0.0, 0.0, *caps)
    demand = DemandMaps(*(
        rng.integers(0, 5, (nx, ny)) + 0.05 * rng.integers(0, 7, (nx, ny))
        for _ in "hv"
    ))
    params = CostParams(
        congestion_weight=float(rng.uniform(0.5, 32.0)),
        slack=float(rng.uniform(0.5, 1.0)),
    )
    cost_model = CostModel(grid, demand, params)
    cost_model.hist_h += rng.integers(0, 3, (nx, ny)) * rng.random((nx, ny))
    cost_model.hist_v += rng.integers(0, 3, (nx, ny)) * rng.random((nx, ny))
    return cost_model


def _random_routes(rng, num_gcells, count):
    """Routes of up to 7 cells per direction; cells repeat within and
    across routes."""
    pool = rng.integers(0, num_gcells, size=4)  # shared hot cells
    routes = []
    for _ in range(count):
        sides = []
        for _ in "hv":
            cells = rng.integers(0, num_gcells, int(rng.integers(0, 6)))
            if rng.random() < 0.5:
                cells = np.concatenate([cells, rng.choice(pool, 2)])
            sides.append(cells.astype(np.int64))
        routes.append(tuple(sides))
    return routes


def _live_arrays(cost_model):
    cost_h, cost_v = cost_model.cost_maps()
    return [
        cost_model.demand.dmd_h.ravel().copy(),
        cost_model.demand.dmd_v.ravel().copy(),
        cost_h.ravel().copy(),
        cost_v.ravel().copy(),
    ]


class TestCommitExactness:
    """The per-cell commit, the one-pass rip-up and the kept totals
    equal the elementwise-numpy and recount forms bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_commit_route_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        cost_model = _random_cost_state(rng)
        got = _live_arrays(cost_model)
        want = [a.copy() for a in got]
        routes = _random_routes(rng, cost_model.grid.num_gcells,
                                int(rng.integers(1, 30)))
        for route in routes:
            sign = float(rng.choice([-1.0, 1.0]))
            commit_route(route, sign, *got[:2], cost_model, *got[2:])
            commit_route_numpy(route, sign, *want[:2], cost_model, *want[2:])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_rip_routes_matches_sequential_commits(self, seed):
        rng = np.random.default_rng(seed)
        cost_model = _random_cost_state(rng)
        got = _live_arrays(cost_model)
        want = [a.copy() for a in got]
        routes = _random_routes(rng, cost_model.grid.num_gcells,
                                int(rng.integers(0, 30)))
        rip_routes(routes, *got[:2], cost_model, *got[2:])
        rip_routes_sequential(routes, *want[:2], cost_model, *want[2:])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_kept_terms_total_like_a_recount(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = (int(n) for n in rng.integers(1, 10, size=2))
        gcell_w, gcell_h = (float(v) for v in rng.uniform(0.1, 7.3, size=2))
        grid = RoutingGrid(nx, ny, gcell_w, gcell_h, 0.0, 0.0,
                           np.ones((nx, ny)), np.ones((nx, ny)))
        routes = _random_routes(rng, nx * ny, int(rng.integers(0, 60)))
        want = wirelength_and_vias_loop(routes, grid)
        assert wirelength_and_vias(routes, grid) == want
        terms = [route_length_and_vias(r, grid) for r in routes]
        assert sum_route_terms(terms) == want

    def test_full_router_keeps_terms_of_its_routes(self, placed_small_design):
        report = GlobalRouter(placed_small_design, keep_state=True).run()
        state = report.state
        assert len(state.route_terms) == len(state.routes)
        assert (report.wirelength, report.via_count) == wirelength_and_vias_loop(
            state.routes, state.grid
        )

    def test_full_router_matches_numpy_commits(self, placed_small_design,
                                               monkeypatch):
        fast = GlobalRouter(placed_small_design, keep_state=True).run()
        monkeypatch.setattr(router_module, "commit_route", commit_route_numpy)
        slow = GlobalRouter(placed_small_design, keep_state=True).run()
        assert (fast.hof, fast.vof, fast.wirelength, fast.via_count) == (
            slow.hof, slow.vof, slow.wirelength, slow.via_count
        )
        assert fast.overflow_history == slow.overflow_history
        for a, b in zip(fast.state.routes, slow.state.routes):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        np.testing.assert_array_equal(fast.demand.dmd_h, slow.demand.dmd_h)
        np.testing.assert_array_equal(fast.demand.dmd_v, slow.demand.dmd_v)
