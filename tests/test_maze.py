"""Tests for the bounded maze router."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.router import maze_route

from .router_oracle import maze_search_jacobi


def uniform(n=12):
    return np.ones((n, n)), np.ones((n, n))


class TestMaze:
    def test_straight_path_on_uniform_costs(self):
        ch, cv = uniform()
        route = maze_route(1, 5, 8, 5, ch, cv, margin=2)
        h, v = route
        assert len(v) == 0
        assert len(h) == 8  # cells 1..8 at gy 5

    def test_same_cell(self):
        ch, cv = uniform()
        h, v = maze_route(3, 3, 3, 3, ch, cv, margin=2)
        assert len(h) == 0 and len(v) == 0

    def test_detours_around_wall(self):
        ch, cv = uniform()
        # Build an expensive horizontal wall at gy=5 between x=3..8.
        for gx in range(3, 9):
            ch[gx, 5] = 1000.0
            cv[gx, 5] = 1000.0
        route = maze_route(1, 5, 10, 5, ch, cv, margin=4)
        h, v = route
        cost = ch.ravel()[h].sum() + cv.ravel()[v].sum() if len(h) or len(v) else 0
        assert cost < 1000.0  # never crosses the wall
        assert len(v) > 0  # had to leave the row

    def test_route_cheaper_or_equal_to_l(self):
        rng = np.random.default_rng(0)
        ch = 1.0 + 5.0 * rng.random((12, 12))
        cv = 1.0 + 5.0 * rng.random((12, 12))
        from repro.router import l_route, route_cost

        route = maze_route(1, 1, 9, 8, ch, cv, margin=2)
        maze_cost = ch.ravel()[route[0]].sum() + cv.ravel()[route[1]].sum()
        for corner_first in (True, False):
            l = l_route(1, 1, 9, 8, 12, corner_first)
            # Maze is optimal within its window, so it can't be worse
            # than either L pattern (up to turn-charge accounting).
            assert maze_cost <= route_cost(l, ch.ravel(), cv.ravel()) + 1e-6

    def test_endpoints_covered(self):
        ch, cv = uniform()
        h, v = maze_route(2, 2, 7, 9, ch, cv, margin=2)
        cells = set(h.tolist()) | set(v.tolist())
        assert (2 * 12 + 2) in cells
        assert (7 * 12 + 9) in cells

    def test_window_too_small_still_connects(self):
        ch, cv = uniform()
        route = maze_route(0, 0, 11, 11, ch, cv, margin=0)
        assert route is not None

    def test_demand_accounting_matches_run_length(self):
        ch, cv = uniform()
        h, v = maze_route(0, 0, 5, 0, ch, cv, margin=1)
        assert len(h) == 6  # 6 cells passed horizontally


class TestGaussSeidelSweeps:
    """Gauss-Seidel sweeps reach the Jacobi fixed point, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        costs=st.sampled_from(["float", "integer", "uniform", "walls"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_routes_equal_jacobi(self, seed, costs):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 15, size=2)
        if costs == "float":
            ch = 1.0 + 5.0 * rng.random((nx, ny))
            cv = 1.0 + 5.0 * rng.random((nx, ny))
        elif costs == "integer":  # tie-heavy
            ch = rng.integers(1, 4, (nx, ny)).astype(float)
            cv = rng.integers(1, 4, (nx, ny)).astype(float)
        elif costs == "uniform":
            ch = np.ones((nx, ny))
            cv = np.ones((nx, ny))
        else:
            ch = np.where(rng.random((nx, ny)) < 0.3, 1000.0, 1.0)
            cv = np.where(rng.random((nx, ny)) < 0.3, 1000.0, 1.0)
        gx0, gx1 = rng.integers(0, nx, size=2)
        gy0, gy1 = rng.integers(0, ny, size=2)
        if gx0 == gx1 and gy0 == gy1:
            return
        margin = int(rng.integers(0, 4))
        xlo = max(min(gx0, gx1) - margin, 0)
        xhi = min(max(gx0, gx1) + margin, nx - 1)
        ylo = max(min(gy0, gy1) - margin, 0)
        yhi = min(max(gy0, gy1) + margin, ny - 1)
        args = (gx0, gy0, gx1, gy1, ch, cv, xlo, xhi, ylo, yhi)
        got = kernels.maze_search(*args)
        want = maze_search_jacobi(*args)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
