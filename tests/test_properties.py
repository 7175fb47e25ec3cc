"""Hypothesis property tests on cross-module invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchgen import GeneratorSpec, generate_design
from repro.core import PaddingEngine, StrategyParams, combine_congestion
from repro.core.features import FEATURE_NAMES, FeatureSet
from repro.legalizer import discretize_padding, legalize_abacus
from repro.netlist import DesignBuilder, Rect, Technology
from repro.placer import WirelengthModel
from repro.verify import VerifyContext, run_checkers

slow_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestGeneratorProperties:
    @given(
        seed=st.integers(0, 10_000),
        cells=st.integers(50, 400),
        util=st.floats(0.4, 0.85),
        locality=st.floats(0.5, 1.0),
    )
    @slow_settings
    def test_any_spec_yields_valid_design(self, seed, cells, util, locality):
        spec = GeneratorSpec(
            name="prop",
            num_cells=cells,
            num_nets=int(cells * 1.5),
            pins_per_net=3.3,
            num_macros=2,
            num_io=4,
            utilization=util,
            locality=locality,
            seed=seed,
        )
        design = generate_design(spec)
        assert run_checkers(VerifyContext(design=design), names=["netlist/integrity"]).ok

    @given(seed=st.integers(0, 10_000))
    @slow_settings
    def test_any_generated_design_legalizes(self, seed):
        spec = GeneratorSpec(
            name="prop",
            num_cells=120,
            num_nets=180,
            pins_per_net=3.2,
            num_macros=2,
            num_io=4,
            utilization=0.7,
            seed=seed,
        )
        design = generate_design(spec)
        # Legalize straight from the (centered) initial positions.
        legalize_abacus(design)
        assert run_checkers(VerifyContext(design=design)).ok


def single_net_wa(coords, gamma):
    """WA length and per-pin x gradient of one net with a pin at each of
    ``coords`` on the x axis (all at y = 0, so y adds nothing)."""
    builder = DesignBuilder("net", Technology(), Rect(-100, -100, 100, 100))
    net = builder.add_net("n")
    for i in range(len(coords)):
        builder.add_pin(builder.add_cell(f"c{i}", 1, 1), net)
    model = WirelengthModel(builder.build())
    wa, grad, _ = model.wa_and_grad(np.asarray(coords), np.zeros(len(coords)), gamma)
    return wa, grad


class TestWirelengthProperties:
    @given(
        coords=st.lists(st.floats(-100, 100), min_size=2, max_size=12),
        gamma=st.floats(0.1, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_wa_bounded_by_span(self, coords, gamma):
        p = np.asarray(coords)
        wa, grad = single_net_wa(p, gamma)
        span = p.max() - p.min()
        assert wa <= span + 1e-6
        assert np.isfinite(grad).all()

    @given(
        coords=st.lists(st.floats(-100, 100), min_size=2, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_wa_tightens_with_gamma(self, coords):
        p = np.asarray(coords)
        wa_tight, _ = single_net_wa(p, 0.05)
        wa_loose, _ = single_net_wa(p, 10.0)
        span = p.max() - p.min()
        assert abs(wa_tight - span) <= abs(wa_loose - span) + 1e-6


class TestCongestionProperties:
    @given(
        cg_h=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
        cg_v=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    )
    @settings(max_examples=100)
    def test_combine_congestion_bounds(self, cg_h, cg_v):
        h = np.asarray(cg_h).reshape(2, 2)
        v = np.asarray(cg_v).reshape(2, 2)
        combined = combine_congestion(h, v)
        # Eq. (10): result is between max(h, v) and h + v where same
        # sign, exactly max where opposite.
        for i in range(2):
            for j in range(2):
                if h[i, j] * v[i, j] < 0:
                    assert combined[i, j] == max(h[i, j], v[i, j])
                else:
                    assert combined[i, j] == pytest.approx(h[i, j] + v[i, j])


class TestPaddingProperties:
    @given(
        magnitudes=st.lists(st.floats(0, 20), min_size=5, max_size=5),
        mu=st.floats(0.2, 4.0),
        beta=st.floats(-2.0, 2.0),
    )
    @slow_settings
    def test_padding_nonnegative_and_monotone_in_mu(self, magnitudes, mu, beta):
        spec = GeneratorSpec(
            name="prop", num_cells=60, num_nets=90, pins_per_net=3.0,
            num_macros=0, num_io=4, seed=3,
        )
        design = generate_design(spec)
        values = {
            name: np.full(design.num_cells, m)
            for name, m in zip(FEATURE_NAMES, magnitudes)
        }
        features = FeatureSet(values)
        pad1 = PaddingEngine(
            design, StrategyParams(mu=mu, beta=beta)
        ).compute_padding(features)
        pad2 = PaddingEngine(
            design, StrategyParams(mu=mu * 2, beta=beta)
        ).compute_padding(features)
        assert (pad1 >= 0).all()
        assert (pad2 >= pad1 - 1e-12).all()

    @given(
        pads=st.lists(st.floats(0, 50), min_size=3, max_size=40),
        theta=st.floats(1.0, 8.0),
    )
    @settings(max_examples=80)
    def test_discretize_monotone(self, pads, theta):
        pad = np.asarray(pads)
        out = discretize_padding(pad, theta, 1.0)
        order = np.argsort(pad)
        assert (np.diff(out[order]) >= -1e-12).all()
