"""M1-M5 — micro-benchmarks of the computational kernels.

Real pytest-benchmark measurements (multiple rounds) of the kernels the
flows are built from: WA wirelength gradients, the spectral density
solve, RSMT construction, congestion estimation, and global routing.
"""

import numpy as np
import pytest

from repro.benchgen import make_design
from repro.core import CongestionEstimator
from repro.placer import ElectrostaticDensity, GlobalPlacer, PlacementParams, WirelengthModel
from repro.router import GlobalRouter, RouterParams
from repro.rsmt import batch, build_rsmt


@pytest.fixture(scope="module")
def perf_design():
    design = make_design("BIT_COIN", scale=0.004)
    GlobalPlacer(design, PlacementParams(max_iters=200)).run()
    return design


def test_m1_wa_gradient(benchmark, perf_design):
    model = WirelengthModel(perf_design)
    benchmark(model.wa_and_grad, perf_design.x, perf_design.y, 8.0)


def test_m2_density_penalty(benchmark, perf_design):
    density = ElectrostaticDensity(perf_design)
    benchmark(density.penalty_and_grad, perf_design.x, perf_design.y)


def test_m3_rsmt(benchmark, rng=np.random.default_rng(5)):
    nets = [
        (rng.uniform(0, 100, n), rng.uniform(0, 100, n))
        for n in rng.integers(2, 12, size=200)
    ]

    def build_all():
        return [build_rsmt(x, y) for x, y in nets]

    topologies = benchmark(build_all)
    assert len(topologies) == 200


def test_m4_congestion_estimation(benchmark, perf_design, monkeypatch):
    estimator = CongestionEstimator(perf_design)

    def estimate():
        monkeypatch.setattr(batch, "_MEMO", batch.TreeMemo())  # the cold path
        return estimator.estimate()

    cmap, topologies, _ = benchmark(estimate)
    assert cmap.dmd_h.sum() > 0


def test_m5_global_routing(benchmark, perf_design):
    report = benchmark.pedantic(
        lambda: GlobalRouter(perf_design, RouterParams(rrr_rounds=1)).run(),
        rounds=2,
        iterations=1,
    )
    assert report.num_segments > 0
