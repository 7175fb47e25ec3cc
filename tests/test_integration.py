"""Cross-module integration tests: full flows, determinism, persistence."""

import numpy as np
import pytest

from repro.benchgen import generate_design, make_design
from repro.core import PufferPlacer, StrategyParams
from repro.legalizer import legalize_abacus
from repro.netlist import load_design, save_design
from repro.placer import GlobalPlacer, PlacementParams
from repro.router import GlobalRouter
from repro.verify import VerifyContext, run_checkers


class TestFullPipeline:
    def test_generate_place_legalize_route(self, small_spec):
        design = generate_design(small_spec)
        gp = GlobalPlacer(design, PlacementParams(max_iters=400)).run()
        assert gp.converged
        legalize_abacus(design)
        assert run_checkers(VerifyContext(design=design)).ok
        report = GlobalRouter(design).run()
        assert report.wirelength > 0

    def test_puffer_deterministic(self, small_spec):
        results = []
        for _ in range(2):
            design = generate_design(small_spec)
            result = PufferPlacer(
                design, placement=PlacementParams(max_iters=300)
            ).run()
            report = GlobalRouter(design).run()
            results.append((result.hpwl, report.hof, report.vof, design.x.copy()))
        assert results[0][0] == pytest.approx(results[1][0], rel=1e-12)
        assert results[0][1] == results[1][1]
        assert np.allclose(results[0][3], results[1][3])

    def test_save_place_load_route_consistent(self, small_spec, tmp_path):
        design = generate_design(small_spec)
        PufferPlacer(design, placement=PlacementParams(max_iters=300)).run()
        report_before = GlobalRouter(design).run()
        save_design(design, str(tmp_path))
        loaded = load_design(str(tmp_path), design.name)
        report_after = GlobalRouter(loaded).run()
        assert report_after.hof == pytest.approx(report_before.hof, abs=1e-9)
        assert report_after.wirelength == pytest.approx(
            report_before.wirelength, rel=1e-9
        )

    def test_padding_improves_congested_design(self):
        """On a congested benchmark, PUFFER must beat the WL-driven flow."""
        name, scale = "MEDIA_SUBSYS", 0.003
        baseline = make_design(name, scale)
        GlobalPlacer(baseline, PlacementParams(max_iters=700)).run()
        legalize_abacus(baseline)
        base_report = GlobalRouter(baseline).run()

        design = make_design(name, scale)
        PufferPlacer(design, placement=PlacementParams(max_iters=700)).run()
        puffer_report = GlobalRouter(design).run()
        assert puffer_report.total_overflow < base_report.total_overflow

    def test_strategy_affects_outcome(self, small_spec):
        a = generate_design(small_spec)
        b = generate_design(small_spec)
        PufferPlacer(
            a, strategy=StrategyParams(mu=0.5), placement=PlacementParams(max_iters=300)
        ).run()
        PufferPlacer(
            b, strategy=StrategyParams(mu=3.0), placement=PlacementParams(max_iters=300)
        ).run()
        assert not np.allclose(a.x, b.x)


class TestRunnerIntegration:
    def test_run_benchmark_row(self):
        from repro.api import flow_puffer
        from repro.evalkit import SuiteRunConfig, run_benchmark

        config = SuiteRunConfig(
            scale=0.002, placement=PlacementParams(max_iters=300)
        )
        row = run_benchmark("OR1200", lambda d, p: flow_puffer(d, p), config, "PUFFER")
        assert row.benchmark == "OR1200"
        assert row.placer == "PUFFER"
        assert row.runtime > 0
        assert row.hpwl > 0

    def test_run_suite_subset_table(self):
        from repro.evalkit import SuiteRunConfig, format_table2, run_suite

        config = SuiteRunConfig(
            scale=0.002,
            placement=PlacementParams(max_iters=300),
            benchmarks=["ASIC_ENTITY"],
        )
        rows = run_suite(config)
        assert len(rows) == 3
        table = format_table2(rows)
        assert "ASIC_ENTITY" in table
