"""Tests for the electrostatic density system and spectral solver."""

import numpy as np
import pytest

from repro.placer import ElectrostaticDensity, PlacementParams, auto_grid_dim
from repro.placer.density import _bilinear, _PoissonSolver

from .gp_oracle import OracleDensity


class TestAutoGrid:
    def test_power_of_two(self):
        for n in (10, 100, 5000, 100000):
            dim = auto_grid_dim(n)
            assert dim & (dim - 1) == 0

    def test_clamped(self):
        assert auto_grid_dim(1) >= 16
        assert auto_grid_dim(10**9) <= 256


class TestSpectral:
    @pytest.mark.parametrize("shape", [(8, 8), (16, 8)])
    def test_evaluators_match_direct_sum(self, shape, rng):
        m, n = shape
        c = rng.normal(size=(m, n))
        wu = np.pi * np.arange(m) / m
        wv = np.pi * np.arange(n) / n

        def direct(coef, fu, fv):
            out = np.zeros((m, n))
            for mm in range(m):
                for nn in range(n):
                    out[mm, nn] = sum(
                        coef[u, v] * fu(wu[u], mm) * fv(wv[v], nn)
                        for u in range(m)
                        for v in range(n)
                    )
            return out

        cos = lambda w, k: np.cos(w * (k + 0.5))
        sin = lambda w, k: np.sin(w * (k + 0.5))
        # series(c) stacks the cos-cos series of c with the sin-cos and
        # cos-sin series of c times the frequency along the sine.
        coscos, sincos, cossin = _PoissonSolver(m, n).series(c)
        assert np.allclose(coscos, direct(c, cos, cos), atol=1e-10)
        assert np.allclose(sincos, direct(c * wu[:, None], sin, cos), atol=1e-10)
        assert np.allclose(cossin, direct(c * wv[None, :], cos, sin), atol=1e-10)

    def test_poisson_solution_on_single_mode(self, small_design):
        """For a pure cosine mode the analytic solution is known exactly:
        ``psi = rho / (wu^2 + wv^2)`` and
        ``ex = wu/(wu^2+wv^2) * sin*cos``."""
        dim = 32
        density = ElectrostaticDensity(small_design, PlacementParams(grid_dim=dim))
        u, v = 1, 2
        wu = np.pi * u / dim
        wv = np.pi * v / dim
        m = np.arange(dim) + 0.5
        rho = np.cos(wu * m)[:, None] * np.cos(wv * m)[None, :]
        psi, ex, ey = density.potential_and_field(rho)
        denom = wu * wu + wv * wv
        assert np.allclose(psi, rho / denom, atol=1e-10)
        expected_ex = (wu / denom) * np.sin(wu * m)[:, None] * np.cos(wv * m)[None, :]
        expected_ey = (wv / denom) * np.cos(wu * m)[:, None] * np.sin(wv * m)[None, :]
        assert np.allclose(ex, expected_ex, atol=1e-10)
        assert np.allclose(ey, expected_ey, atol=1e-10)

    def test_dc_component_removed(self, small_design, rng):
        density = ElectrostaticDensity(small_design, PlacementParams(grid_dim=16))
        rho = rng.random((16, 16)) + 5.0
        psi, _, _ = density.potential_and_field(rho)
        assert abs(psi.mean()) < 1e-8 * abs(psi).max()

    def test_field_is_negative_gradient(self, small_design, rng):
        from scipy.ndimage import gaussian_filter

        density = ElectrostaticDensity(small_design, PlacementParams(grid_dim=32))
        rho = gaussian_filter(rng.random((32, 32)), sigma=2.0, mode="wrap")
        psi, ex, ey = density.potential_and_field(rho)
        dpsi_dx = np.gradient(psi, axis=0)
        inner = slice(2, -2)
        corr = np.corrcoef(
            ex[inner, inner].ravel(), -dpsi_dx[inner, inner].ravel()
        )[0, 1]
        assert corr > 0.99


class TestDensityMap:
    def test_total_area_preserved(self, small_design):
        density = ElectrostaticDensity(small_design)
        rho = density.movable_density(small_design.x, small_design.y)
        assert rho.sum() == pytest.approx(small_design.movable_area, rel=1e-6)

    def test_area_preserved_after_padding(self, small_design):
        density = ElectrostaticDensity(small_design)
        density.set_sizes(small_design.w * 1.5, small_design.h)
        rho = density.movable_density(small_design.x, small_design.y)
        expected = float(
            (small_design.w[small_design.movable] * 1.5
             * small_design.h[small_design.movable]).sum()
        )
        assert rho.sum() == pytest.approx(expected, rel=1e-6)

    def test_fixed_map_nonzero_with_macros(self, small_design):
        density = ElectrostaticDensity(small_design)
        assert density.fixed_map.sum() > 0

    def test_fixed_map_clipped_at_bin_area(self, small_design):
        density = ElectrostaticDensity(small_design)
        assert (density.fixed_map <= density.bin_area + 1e-9).all()

    def test_overflow_decreases_when_spread(self, small_design, rng):
        density = ElectrostaticDensity(small_design)
        die = small_design.die
        x_center = np.full(small_design.num_cells, die.center.x)
        y_center = np.full(small_design.num_cells, die.center.y)
        clustered = density.overflow(x_center, y_center)
        x_rand = rng.uniform(die.xlo, die.xhi, small_design.num_cells)
        y_rand = rng.uniform(die.ylo, die.yhi, small_design.num_cells)
        spread = density.overflow(x_rand, y_rand)
        assert spread < clustered

    def test_gradient_points_away_from_cluster(self, small_design):
        """Cells right of a central cluster must feel a rightward force."""
        density = ElectrostaticDensity(small_design)
        die = small_design.die
        x = np.full(small_design.num_cells, die.center.x)
        y = np.full(small_design.num_cells, die.center.y)
        probe = int(np.flatnonzero(small_design.movable)[0])
        x[probe] = die.center.x + die.width * 0.25
        _, gx, _, _ = density.penalty_and_grad(x, y)
        # Descent direction is -gx; moving away from the cluster (further
        # right) must reduce the penalty: gx > 0 is wrong, gx < 0 right.
        # The gradient is in movable order, and the probe is movable 0.
        assert gx[0] < 0

    def test_set_sizes_length_mismatch_raises(self, small_design):
        density = ElectrostaticDensity(small_design)
        with pytest.raises(ValueError):
            density.set_sizes(np.ones(3), np.ones(3))


class TestAgainstPerGridOracle:
    """One stacked solve and sample reproduce the per-grid path bit for bit."""

    @pytest.mark.parametrize("dim", [16, 32, 64, 128])
    def test_penalty_and_grad_identical(self, small_design, rng, dim):
        params = PlacementParams(grid_dim=dim)
        density = ElectrostaticDensity(small_design, params)
        oracle = OracleDensity(small_design, params)
        die = small_design.die
        x = rng.uniform(die.xlo, die.xhi, small_design.num_cells)
        y = rng.uniform(die.ylo, die.yhi, small_design.num_cells)
        for w_scale in (1.0, 1.7):
            w_eff = small_design.w * w_scale
            density.set_sizes(w_eff, small_design.h)
            oracle.set_sizes(w_eff, small_design.h)
            got = density.penalty_and_grad(x, y)
            want = oracle.penalty_and_grad(x, y)
            assert got[0] == want[0] and got[3] == want[3]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("dim", [16, 32, 64, 128])
    def test_potential_and_field_identical(self, small_design, rng, dim):
        params = PlacementParams(grid_dim=dim)
        rho = rng.random((dim, dim)) * 10.0
        got = ElectrostaticDensity(small_design, params).potential_and_field(rho)
        want = OracleDensity(small_design, params).potential_and_field(rho)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestBilinear:
    def test_exact_on_grid_points(self, rng):
        grid = rng.random((8, 8))
        fx = np.array([2.0, 5.0])
        fy = np.array([3.0, 7.0])
        (out,) = _bilinear((grid,), fx, fy)
        assert out[0] == pytest.approx(grid[2, 3])
        assert out[1] == pytest.approx(grid[5, 7])

    def test_interpolates_midpoint(self):
        grid = np.array([[0.0, 0.0], [1.0, 1.0]])
        (out,) = _bilinear((grid,), np.array([0.5]), np.array([0.0]))
        assert out[0] == pytest.approx(0.5)

    def test_clamps_out_of_range(self, rng):
        grid = rng.random((4, 4))
        (out,) = _bilinear((grid,), np.array([-3.0, 99.0]), np.array([-1.0, 99.0]))
        assert out[0] == pytest.approx(grid[0, 0])
        assert out[1] == pytest.approx(grid[3, 3])
