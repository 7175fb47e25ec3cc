"""Tests for the synthetic benchmark generator and the Table-I suite."""

import numpy as np
import pytest

from repro.benchgen import (
    SUITE,
    GeneratorSpec,
    generate_design,
    make_design,
    spec_for,
    suite_names,
)
from repro.benchgen.suite import env_scale
from repro.verify import VerifyContext, run_checkers


class TestGenerator:
    def test_deterministic(self, small_spec):
        a = generate_design(small_spec)
        b = generate_design(small_spec)
        assert a.cell_names == b.cell_names
        assert np.array_equal(a.net_start, b.net_start)
        assert np.allclose(a.x, b.x)

    def test_seed_changes_netlist(self, small_spec):
        import dataclasses

        other = dataclasses.replace(small_spec, seed=small_spec.seed + 1)
        a = generate_design(small_spec)
        b = generate_design(other)
        assert not np.array_equal(a.net_start, b.net_start) or not np.allclose(
            a.pin_dx, b.pin_dx
        )

    def test_counts_match_spec(self, small_design, small_spec):
        movable_std = int((small_design.movable & ~small_design.is_macro).sum())
        assert movable_std == small_spec.num_cells
        assert small_design.num_nets == small_spec.num_nets
        assert small_design.num_macros <= small_spec.num_macros

    def test_mean_degree_near_target(self, small_design, small_spec):
        mean = small_design.num_pins / small_design.num_nets
        assert mean == pytest.approx(small_spec.pins_per_net, rel=0.15)

    def test_validates(self, small_design):
        assert run_checkers(VerifyContext(design=small_design), names=["netlist/integrity"]).ok

    def test_utilization_near_target(self, small_design, small_spec):
        fixed = ~small_design.movable
        fixed_area = float(
            (small_design.w[fixed] * small_design.h[fixed]).sum()
        )
        free = small_design.die.area - fixed_area
        util = small_design.movable_area / free
        assert util == pytest.approx(small_spec.utilization, rel=0.1)

    def test_macros_do_not_overlap(self, small_design):
        macros = np.flatnonzero(small_design.is_macro)
        rects = [small_design.cell_rect(int(m)) for m in macros]
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert not rects[i].intersects(rects[j])

    def test_pg_blockages_present(self, small_design):
        assert len(small_design.blockages) > 0

    def test_zero_pg_density(self):
        spec = GeneratorSpec(
            "no_pg", 100, 150, 3.0, num_macros=0, pg_density=0.0, seed=1
        )
        d = generate_design(spec)
        assert len(d.blockages) == 0

    def test_ios_on_boundary(self, small_design):
        ios = [
            i
            for i, name in enumerate(small_design.cell_names)
            if name.startswith("IO_")
        ]
        die = small_design.die
        for i in ios:
            r = small_design.cell_rect(i)
            on_edge = (
                r.xlo <= die.xlo + 1e-9
                or r.xhi >= die.xhi - 1e-9
                or r.ylo <= die.ylo + 1e-9
                or r.yhi >= die.yhi - 1e-9
            )
            assert on_edge


class TestSuite:
    def test_ten_designs(self):
        assert len(suite_names()) == 10
        assert suite_names()[0] == "OR1200"

    def test_spec_scaling(self):
        spec = spec_for("OR1200", scale=0.01)
        assert spec.num_cells == 1220
        assert spec.num_nets == 1930

    def test_media_pair_shares_seed(self):
        a = spec_for("MEDIA_SUBSYS")
        b = spec_for("MEDIA_PG_MODIFY")
        assert a.seed == b.seed
        assert a.pg_density > b.pg_density

    def test_congested_designs_use_reduced_stack(self):
        assert spec_for("MEDIA_SUBSYS").reduced_stack
        assert spec_for("A53_ADB_WRAP").reduced_stack
        assert not spec_for("CT_TOP").reduced_stack

    def test_make_design_small_scale(self):
        d = make_design("ASIC_ENTITY", scale=0.002)
        assert d.name == "ASIC_ENTITY"
        assert run_checkers(VerifyContext(design=d), names=["netlist/integrity"]).ok

    def test_pins_per_net_from_table(self):
        entry = next(e for e in SUITE if e.name == "CT_TOP")
        assert entry.pins_per_net == pytest.approx(4_091_000 / 1_272_000)

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        assert env_scale() == 0.002
        monkeypatch.setenv("REPRO_SCALE", "7")
        with pytest.raises(ValueError):
            env_scale()
        monkeypatch.delenv("REPRO_SCALE")
        assert env_scale(0.004) == 0.004
