"""Tests for the WA wirelength model: accuracy and gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import DesignBuilder, Rect, Technology
from repro.placer import WirelengthModel, gamma_schedule

from .gp_oracle import OracleWirelength, oracle_design_hpwl, oracle_net_bboxes


def random_netlist(seed: int):
    """A random netlist with positions ``(design, x, y)``: fixed and
    movable cells, empty and single-pin nets, nets of 9 to 14 pins, and
    coincident pins."""
    rng = np.random.default_rng(seed)
    builder = DesignBuilder("wa", Technology(), Rect(0, 0, 100, 100))
    n = int(rng.integers(2, 40))
    cells = [
        builder.add_cell(f"c{i}", 4.0, 8.0, movable=bool(rng.random() < 0.7))
        for i in range(n)
    ]
    degrees = [0, 1, int(rng.integers(9, 15))]
    degrees += rng.integers(0, 15, size=int(rng.integers(0, 12))).tolist()
    for j in rng.permutation(len(degrees)):
        net = builder.add_net(f"n{j}")
        for _ in range(degrees[j]):
            builder.add_pin(
                cells[int(rng.integers(n))], net,
                dx=float(rng.uniform(-2, 2)), dy=float(rng.uniform(-4, 4)),
            )
    design = builder.build()
    x = rng.uniform(0, 100, n)
    y = rng.uniform(0, 100, n)
    x[: n // 4] = x[0]
    return design, x, y


class TestAgainstPerAxisOracle:
    """The stacked x|y evaluation does the per-axis arithmetic, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.05, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_wa_and_grad_identical(self, seed, gamma):
        design, x, y = random_netlist(seed)
        wl, gx, gy = WirelengthModel(design).wa_and_grad(x, y, gamma)
        wl_ref, gx_ref, gy_ref = OracleWirelength(design).wa_and_grad(x, y, gamma)
        assert wl == wl_ref
        assert np.array_equal(gx, gx_ref)
        assert np.array_equal(gy, gy_ref)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hpwl_and_bboxes_identical(self, seed):
        design, x, y = random_netlist(seed)
        assert WirelengthModel(design).hpwl(x, y) == OracleWirelength(design).hpwl(x, y)
        design.x[:], design.y[:] = x, y
        assert design.hpwl() == oracle_design_hpwl(design)
        for got, want in zip(design.net_bboxes(), oracle_net_bboxes(design)):
            assert np.array_equal(got, want)

    def test_generated_design_identical(self, small_design, rng):
        die = small_design.die
        x = rng.uniform(die.xlo, die.xhi, small_design.num_cells)
        y = rng.uniform(die.ylo, die.yhi, small_design.num_cells)
        for gamma in (0.05, 1.0, 8.0, 50.0):
            got = WirelengthModel(small_design).wa_and_grad(x, y, gamma)
            want = OracleWirelength(small_design).wa_and_grad(x, y, gamma)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])


class TestHPWL:
    def test_matches_design_hpwl(self, small_design):
        model = WirelengthModel(small_design)
        assert model.hpwl(small_design.x, small_design.y) == pytest.approx(
            small_design.hpwl()
        )


class TestWAModel:
    def test_wa_upper_bounds_hpwl(self, small_design):
        """WA is a smooth underestimate of HPWL that tightens as gamma -> 0."""
        model = WirelengthModel(small_design)
        hpwl = model.hpwl(small_design.x, small_design.y)
        wa_loose, _, _ = model.wa_and_grad(small_design.x, small_design.y, gamma=10.0)
        wa_tight, _, _ = model.wa_and_grad(small_design.x, small_design.y, gamma=0.1)
        assert wa_loose <= hpwl + 1e-6
        assert abs(wa_tight - hpwl) < abs(wa_loose - hpwl) + 1e-9

    def test_wa_converges_to_hpwl(self, tiny_design):
        model = WirelengthModel(tiny_design)
        hpwl = model.hpwl(tiny_design.x, tiny_design.y)
        wa, _, _ = model.wa_and_grad(tiny_design.x, tiny_design.y, gamma=0.01)
        assert wa == pytest.approx(hpwl, rel=1e-3, abs=1e-3)

    def test_gradient_matches_finite_differences(self, tiny_design):
        model = WirelengthModel(tiny_design)
        x = tiny_design.x.copy()
        y = tiny_design.y.copy()
        gamma = 2.0
        _, gx, gy = model.wa_and_grad(x, y, gamma)
        eps = 1e-5
        for cell in range(tiny_design.num_cells):
            xp = x.copy()
            xp[cell] += eps
            wp, _, _ = model.wa_and_grad(xp, y, gamma)
            xm = x.copy()
            xm[cell] -= eps
            wm, _, _ = model.wa_and_grad(xm, y, gamma)
            assert gx[cell] == pytest.approx((wp - wm) / (2 * eps), abs=1e-4)

    def test_gradient_matches_fd_generated(self, small_design, rng):
        model = WirelengthModel(small_design)
        x, y = small_design.x.copy(), small_design.y.copy()
        gamma = 3.0
        _, gx, gy = model.wa_and_grad(x, y, gamma)
        eps = 1e-5
        for cell in rng.choice(small_design.num_cells, 10, replace=False):
            yp = y.copy()
            yp[cell] += eps
            wp, _, _ = model.wa_and_grad(x, yp, gamma)
            ym = y.copy()
            ym[cell] -= eps
            wm, _, _ = model.wa_and_grad(x, ym, gamma)
            assert gy[cell] == pytest.approx((wp - wm) / (2 * eps), abs=1e-3)

    def test_translation_invariant_gradient(self, small_design):
        model = WirelengthModel(small_design)
        gamma = 2.0
        w1, gx1, _ = model.wa_and_grad(small_design.x, small_design.y, gamma)
        w2, gx2, _ = model.wa_and_grad(small_design.x + 100.0, small_design.y, gamma)
        assert w1 == pytest.approx(w2, rel=1e-9, abs=1e-6)
        assert np.allclose(gx1, gx2, atol=1e-9)

    def test_numerical_stability_extreme_coordinates(self, tiny_design):
        model = WirelengthModel(tiny_design)
        x = tiny_design.x * 1e5
        wa, gx, gy = model.wa_and_grad(x, tiny_design.y, gamma=0.5)
        assert np.isfinite(wa)
        assert np.isfinite(gx).all()
        assert np.isfinite(gy).all()


class TestGammaSchedule:
    def test_monotone_in_overflow(self):
        values = [gamma_schedule(8.0, o) for o in (0.1, 0.3, 0.5, 0.9)]
        assert values == sorted(values)

    def test_endpoints(self):
        assert gamma_schedule(8.0, 1.0) == pytest.approx(80.0)
        assert gamma_schedule(8.0, 0.1) == pytest.approx(0.8)

    @given(st.floats(-1, 2, allow_nan=False))
    @settings(max_examples=30)
    def test_always_positive(self, overflow):
        assert gamma_schedule(8.0, overflow) > 0
