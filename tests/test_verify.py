"""Tests for the repro.verify invariant checkers."""

import numpy as np
import pytest

from repro import api, obs
from repro.legalizer import legalize_abacus, padded_widths
from repro.netlist import DesignBuilder, Rect, Technology
from repro.obs import Tracer
from repro.verify import (
    CHECKERS,
    VerificationError,
    VerifyContext,
    VerifyReport,
    Violation,
    check_netlist,
    check_overlaps,
    check_padding,
    check_routing,
    checkers_for,
    run_checkers,
)


def build(cells, die=64.0, fixed=None):
    """cells: list of (x, y, w) placements; fixed: (x, y, w, h) fixed cells."""
    tech = Technology()
    b = DesignBuilder("v", tech, Rect(0, 0, die, die))
    for i, (x, y, w) in enumerate(cells):
        b.add_cell(f"c{i}", w, tech.row_height, x=x, y=y)
    for i, (x, y, w, h) in enumerate(fixed or []):
        b.add_cell(f"f{i}", w, h, x=x, y=y, movable=False)
    return b.build()


def messages(found, severity):
    return [v.message for v in found if v.severity == severity]


@pytest.fixture(scope="module")
def legalized(small_spec):
    """A globally-placed and legalized design (module-cached, read-only)."""
    from repro.benchgen import generate_design
    from repro.placer import GlobalPlacer, PlacementParams

    design = generate_design(small_spec)
    GlobalPlacer(design, PlacementParams(max_iters=300)).run()
    legalize_abacus(design)
    return design


@pytest.fixture
def legal_design(legalized, small_spec):
    """A fresh mutable copy of the legalized design."""
    from repro.benchgen import generate_design

    design = generate_design(small_spec)
    design.x[:] = legalized.x
    design.y[:] = legalized.y
    return design


class TestViolation:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Violation(checker="x", severity="fatal", message="boom")

    def test_to_dict_drops_empty_fields(self):
        v = Violation(checker="placement/overlap", severity="error", message="m")
        d = v.to_dict()
        assert d == {
            "checker": "placement/overlap",
            "severity": "error",
            "message": "m",
        }

    def test_to_dict_full(self):
        v = Violation(
            checker="c", severity="warning", message="m",
            cells=(1, 2), nets=(3,), measured=1.5, allowed=1.0,
        )
        d = v.to_dict()
        assert d["cells"] == [1, 2] and d["nets"] == [3]
        assert d["measured"] == 1.5 and d["allowed"] == 1.0
        assert str(v) == "[warning] c: m"


class TestVerifyReport:
    def test_ok_ignores_warnings(self):
        report = VerifyReport(
            violations=[Violation(checker="c", severity="warning", message="m")],
            checkers_run=["c"],
        )
        assert report.ok
        assert len(report.warnings) == 1 and not report.errors

    def test_errors_break_ok(self):
        report = VerifyReport(
            violations=[Violation(checker="c", severity="error", message="m")]
        )
        assert not report.ok

    def test_merge_and_counts(self):
        a = VerifyReport(
            violations=[Violation(checker="x", severity="error", message="1")],
            checkers_run=["x"],
        )
        b = VerifyReport(
            violations=[Violation(checker="x", severity="error", message="2")],
            checkers_run=["x", "y"],
        )
        a.merge(b)
        assert a.counts() == {"x": 2}
        assert a.checkers_run == ["x", "y"]

    def test_to_dict_shape(self):
        report = VerifyReport(checkers_run=["c"])
        d = report.to_dict()
        assert d["ok"] is True
        assert d["checkers_run"] == ["c"]
        assert d["num_errors"] == 0 and d["num_warnings"] == 0

    def test_report_str(self):
        report = VerifyReport(
            violations=[Violation(checker="c", severity="warning", message="m")],
            checkers_run=["c"],
        )
        assert str(report).splitlines() == [
            "verify: 1 checkers, 0 errors, 1 warnings",
            "  [warning] c: m",
        ]

    def test_verification_error_carries_context(self):
        report = VerifyReport()
        err = VerificationError("bad", report=report, rows=[1])
        assert err.report is report and err.rows == [1]


class TestLevels:
    def test_off_selects_nothing(self):
        assert checkers_for("off") == []

    def test_cheap_excludes_full_checkers(self):
        cheap = checkers_for("cheap")
        assert "placement/overlap" in cheap
        assert "netlist/integrity" not in cheap

    def test_full_is_whole_registry(self):
        assert checkers_for("full") == list(CHECKERS)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            checkers_for("paranoid")
        with pytest.raises(ValueError):
            run_checkers(VerifyContext(design=None), level="paranoid")


class TestPlacementCheckers:
    def test_legal_placement_is_clean(self, legal_design):
        report = run_checkers(VerifyContext(design=legal_design), level="cheap")
        assert report.ok and not report.violations
        # Padding skipped (no padded_widths); the rest ran.
        assert "padding/accounting" not in report.checkers_run
        assert "placement/overlap" in report.checkers_run

    def test_containment_catches_escape(self, legal_design):
        cell = int(np.flatnonzero(legal_design.movable)[0])
        legal_design.x[cell] = legal_design.die.xhi + 10
        report = run_checkers(VerifyContext(design=legal_design), level="cheap")
        assert not report.ok
        assert any(
            v.checker == "placement/containment" and cell in v.cells
            for v in report.errors
        )

    def test_row_alignment_catches_offset(self, legal_design):
        cell = int(np.flatnonzero(legal_design.movable & ~legal_design.is_macro)[0])
        legal_design.y[cell] += 0.5 * legal_design.technology.row_height
        report = run_checkers(VerifyContext(design=legal_design), level="cheap")
        assert any(v.checker == "placement/row_alignment" for v in report.errors)

    def test_site_alignment_catches_offset(self, legal_design):
        cell = int(np.flatnonzero(legal_design.movable & ~legal_design.is_macro)[0])
        legal_design.x[cell] += 0.37 * legal_design.technology.site_width
        report = run_checkers(VerifyContext(design=legal_design), level="cheap")
        assert any(v.checker == "placement/site_alignment" for v in report.errors)

    def test_overlap_catches_stacked_cells(self, legal_design):
        idx = np.flatnonzero(legal_design.movable & ~legal_design.is_macro)
        a, b = int(idx[0]), int(idx[1])
        legal_design.x[b] = legal_design.x[a]
        legal_design.y[b] = legal_design.y[a]
        found = check_overlaps(VerifyContext(design=legal_design))
        assert found and found[0].severity == "error"
        assert a in found[0].cells and b in found[0].cells

    def test_overlap_catches_movable_on_fixed(self, legal_design):
        movable = int(np.flatnonzero(legal_design.movable & ~legal_design.is_macro)[0])
        macro = int(np.flatnonzero(legal_design.is_macro)[0])
        legal_design.x[movable] = legal_design.x[macro]
        legal_design.y[movable] = legal_design.y[macro]
        found = check_overlaps(VerifyContext(design=legal_design))
        assert found and movable in found[0].cells

    def test_fixed_on_fixed_overlap_exempt(self, legal_design):
        # Generated designs place fixed power-grid cells over macro
        # outlines; fixed-on-fixed geometry is not a placement defect.
        fixed = np.flatnonzero(~legal_design.movable)
        assert len(fixed) >= 2
        a, b = int(fixed[0]), int(fixed[1])
        legal_design.x[b] = legal_design.x[a]
        legal_design.y[b] = legal_design.y[a]
        assert check_overlaps(VerifyContext(design=legal_design)) == []

    def test_overlap_reporting_is_capped(self, legal_design):
        # Stack *everything*: the checker must truncate, not explode.
        movable = np.flatnonzero(legal_design.movable & ~legal_design.is_macro)
        legal_design.x[movable] = legal_design.x[movable[0]]
        legal_design.y[movable] = legal_design.y[movable[0]]
        found = check_overlaps(VerifyContext(design=legal_design))
        assert found and "truncated" in found[0].message

    def test_abutting_cells_are_legal(self):
        # Two cells abutting in row 0 (bottoms at y=0, centers at 4).
        assert run_checkers(VerifyContext(design=build([(1, 4, 2), (3, 4, 2)]))).ok

    def test_same_x_different_rows_not_an_overlap(self):
        d = build([(1, 4, 2), (1, 12, 2)])
        assert check_overlaps(VerifyContext(design=d)) == []

    def test_overlap_with_sub_tolerance_y_jitter(self):
        # Overlapping cells whose bottoms differ by 1e-9 share one row;
        # grouping rows by exact bottom y would miss the overlap.
        d = build([(1.0, 4, 2), (2.0, 4 + 1e-9, 2)])
        found = check_overlaps(VerifyContext(design=d))
        assert found and set(found[0].cells) == {0, 1}

    def test_cell_on_fixed_object_overlaps(self):
        d = build([(10, 12, 2)], fixed=[(10, 12, 8, 8)])
        found = check_overlaps(VerifyContext(design=d))
        assert found and set(found[0].cells) == {0, 1}

    def test_cell_past_die_edge_escapes(self):
        report = run_checkers(VerifyContext(design=build([(63.5, 4, 2)])))
        assert any(
            v.checker == "placement/containment" and 0 in v.cells
            for v in report.errors
        )

    def test_partly_overlapping_neighbours_overlap(self):
        found = check_overlaps(VerifyContext(design=build([(1.0, 4, 2), (2.0, 4, 2)])))
        assert found and set(found[0].cells) == {0, 1}

    def test_half_row_offset_misaligns(self):
        report = run_checkers(VerifyContext(design=build([(1, 5.5, 2)])))
        assert [v.checker for v in report.errors] == ["placement/row_alignment"]

    def test_fractional_site_offset_misaligns(self):
        report = run_checkers(VerifyContext(design=build([(1.3, 4, 2)])))
        assert [v.checker for v in report.errors] == ["placement/site_alignment"]


class TestPaddingChecker:
    def test_skipped_without_widths(self, legal_design):
        assert check_padding(VerifyContext(design=legal_design)) == []

    def test_real_padded_widths_are_clean(self, legal_design):
        rng = np.random.default_rng(7)
        pad = np.where(
            legal_design.movable, rng.uniform(0, 2, legal_design.num_cells), 0.0
        )
        widths = padded_widths(legal_design, pad, theta=4.0)
        found = check_padding(
            VerifyContext(design=legal_design, pad=pad, padded_widths=widths)
        )
        assert found == []

    def test_non_whole_site_padding_flagged(self, legal_design):
        widths = legal_design.w.copy()
        cell = int(np.flatnonzero(legal_design.movable & ~legal_design.is_macro)[0])
        widths[cell] += 0.5 * legal_design.technology.site_width
        found = check_padding(
            VerifyContext(design=legal_design, padded_widths=widths)
        )
        assert any("whole-site" in v.message for v in found)

    def test_budget_violation_flagged(self, legal_design):
        movable = legal_design.movable & ~legal_design.is_macro
        widths = legal_design.w + np.where(movable, 8.0, 0.0)
        found = check_padding(
            VerifyContext(design=legal_design, padded_widths=widths, area_cap=0.01)
        )
        assert any("budget" in v.message for v in found)

    def test_zero_pad_must_stay_zero(self, legal_design):
        movable = legal_design.movable & ~legal_design.is_macro
        pad = np.zeros(legal_design.num_cells)
        widths = legal_design.w + np.where(movable, 1.0, 0.0)
        found = check_padding(
            VerifyContext(
                design=legal_design, pad=pad, padded_widths=widths, area_cap=1.0
            )
        )
        assert any("unpadded cells received" in v.message for v in found)

    def test_fixed_cells_must_not_pad(self, legal_design):
        widths = legal_design.w.copy()
        fixed = int(np.flatnonzero(~legal_design.movable)[0])
        widths[fixed] += 1.0
        found = check_padding(
            VerifyContext(design=legal_design, padded_widths=widths)
        )
        assert any("fixed cells" in v.message for v in found)

    def test_catches_mistranscribed_eq17(self, legal_design):
        # Acceptance: reintroducing floor(theta * (pad/mp + 1/2)) hands
        # every epsilon-padded cell floor(theta/2) sites and blows the
        # 5 % budget — the checker must catch the regression.
        movable = legal_design.movable & ~legal_design.is_macro
        rng = np.random.default_rng(3)
        pad = np.where(movable, rng.uniform(1e-6, 1e-3, legal_design.num_cells), 0.0)
        theta, site = 4.0, legal_design.technology.site_width
        buggy = np.floor(theta * (pad / pad.max() + 0.5)) * site
        widths = legal_design.w + np.where(movable, buggy, 0.0)
        found = check_padding(
            VerifyContext(design=legal_design, pad=pad, padded_widths=widths)
        )
        assert any("budget" in v.message for v in found)


class TestNetlistChecker:
    def test_generated_design_is_clean(self, small_design):
        found = check_netlist(VerifyContext(design=small_design))
        assert [v for v in found if v.severity == "error"] == []

    def test_connected_hand_built_design_is_clean(self):
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 64, 64))
        net = b.add_net("n0")
        for i in range(2):
            b.add_pin(b.add_cell(f"c{i}", 2, tech.row_height), net)
        assert check_netlist(VerifyContext(design=b.build())) == []

    def test_dangling_pin_reference(self, small_design):
        small_design.pin_cell[0] = small_design.num_cells + 5
        found = check_netlist(VerifyContext(design=small_design))
        assert any("dangling" in v.message for v in found)

    def test_pin_offset_outside_cell(self, small_design):
        small_design.pin_dx[0] = small_design.w[small_design.pin_cell[0]] * 3.0
        found = check_netlist(VerifyContext(design=small_design))
        assert any("outside the cell outline" in v.message for v in found)

    def test_pin_net_csr_mismatch(self, small_design):
        # Point one pin's pin_net at a different net without touching
        # the CSR: the cross-check must notice the disagreement.
        pin = 0
        original = int(small_design.pin_net[pin])
        small_design.pin_net[pin] = (original + 1) % small_design.num_nets
        found = check_netlist(VerifyContext(design=small_design))
        assert any("disagrees with the net CSR" in v.message for v in found)

    def test_thin_net_warns(self):
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 64, 64))
        b.add_pin(b.add_cell("c0", 2, 8), b.add_net("n0"))
        found = check_netlist(VerifyContext(design=b.build()))
        assert messages(found, "error") == []
        assert "1 nets with fewer than two pins" in messages(found, "warning")

    def test_no_cells_is_error(self):
        d = DesignBuilder("v", Technology(), Rect(0, 0, 64, 64)).build()
        found = check_netlist(VerifyContext(design=d))
        assert messages(found, "error") == ["design has no cells"]

    def test_non_positive_dimensions_is_error(self, small_design):
        cell = int(np.flatnonzero(small_design.movable)[0])
        small_design.w[cell] = 0.0
        found = check_netlist(VerifyContext(design=small_design))
        assert "non-positive cell dimensions" in messages(found, "error")

    def test_fixed_cell_outside_die_is_error(self):
        d = build([(10, 12, 2)], fixed=[(63.5, 10, 4, 8)])
        found = check_netlist(VerifyContext(design=d))
        assert "1 fixed cells extend outside the die" in messages(found, "error")

    def test_floating_movable_cell_warns(self):
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 64, 64))
        net = b.add_net("n0")
        b.add_pin(b.add_cell("c0", 2, 8), net)
        b.add_pin(b.add_cell("c1", 2, 8), net)
        b.add_cell("c2", 2, 8)
        b.add_cell("f0", 2, 8, movable=False)
        found = check_netlist(VerifyContext(design=b.build()))
        assert messages(found, "warning") == ["1 movable cells with no pins"]

    def test_over_utilization_is_error(self):
        d = build([(8 * i + 4, 4, 8) for i in range(70)], die=16.0)
        found = check_netlist(VerifyContext(design=d))
        assert "movable area exceeds free die area (util=17.500)" in messages(
            found, "error"
        )

    def test_high_utilization_warns(self):
        # 31 one-site cells on a 32-site die: util 0.969, usable but suspicious.
        d = build([(4, 4, 1)] * 31, die=16.0)
        found = check_netlist(VerifyContext(design=d))
        assert messages(found, "error") == []
        assert "very high utilization 0.969" in messages(found, "warning")

    def test_placement_blockage_counts_against_free_area(self):
        # Movable area (192) fits the bare die (256) but not the half
        # left free by a layer-0 (below routing_layers_start) blockage.
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 16, 16))
        for i in range(3):
            b.add_cell(f"c{i}", 8, tech.row_height)
        b.add_blockage(Rect(0, 8, 16, 16), layer=0)
        found = check_netlist(VerifyContext(design=b.build()))
        assert any("exceeds free die area" in m for m in messages(found, "error"))

    def test_routing_blockage_does_not_reduce_free_area(self):
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 16, 16))
        for i in range(3):
            b.add_cell(f"c{i}", 8, tech.row_height)
        b.add_blockage(Rect(0, 8, 16, 16), layer=tech.routing_layers_start)
        assert check_netlist(VerifyContext(design=b.build())) == []

    def test_blockage_area_clipped_to_die(self):
        # A placement blockage hanging past the die edge only counts its
        # in-die part (128 of 768); movable area 96 still fits the rest.
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 16, 16))
        for i in range(3):
            b.add_cell(f"c{i}", 4, tech.row_height)
        b.add_blockage(Rect(-16, 8, 32, 24), layer=0)
        assert check_netlist(VerifyContext(design=b.build())) == []


class TestRoutingChecker:
    @pytest.fixture(scope="class")
    def routed(self, legalized):
        from repro.router import GlobalRouter

        return GlobalRouter(legalized).run()

    def test_skipped_without_maps(self, legal_design):
        assert check_routing(VerifyContext(design=legal_design)) == []

    def test_real_route_is_clean(self, legalized, routed):
        found = check_routing(
            VerifyContext(
                design=legalized,
                grid=routed.grid,
                demand=routed.demand,
                route_report=routed,
            )
        )
        assert found == []

    def test_tampered_overflow_flagged(self, legalized, routed):
        import copy

        tampered = copy.copy(routed)
        tampered.hof = routed.hof + 5.0
        found = check_routing(
            VerifyContext(
                design=legalized,
                grid=routed.grid,
                demand=routed.demand,
                route_report=tampered,
            )
        )
        assert any("HOF disagrees" in v.message for v in found)


class TestObsIntegration:
    def test_spans_and_counter(self, legal_design):
        cell = int(np.flatnonzero(legal_design.movable)[0])
        legal_design.x[cell] = legal_design.die.xhi + 10
        tracer = Tracer()
        with obs.tracing(tracer):
            report = run_checkers(VerifyContext(design=legal_design), level="cheap")
        assert not report.ok
        names = {record["name"] for record in tracer.ring}
        assert "verify/placement/containment" in names
        assert tracer.counter("verify/violations").value == len(report.violations)


class TestApiWiring:
    def test_run_with_verify_full(self, small_design):
        result = api.run(
            small_design,
            flow="puffer",
            config=api.RunConfig(verify="full"),
            route=True,
        )
        report = result.verify_report
        assert report is not None and report.ok
        # Flow exposes padding and the run routed: every checker ran.
        assert set(report.checkers_run) == set(CHECKERS)

    def test_run_verify_off_by_default(self, small_design):
        from repro.placer import PlacementParams

        result = api.run(
            small_design,
            flow="wirelength",
            config=api.RunConfig(placement=PlacementParams(max_iters=150)),
        )
        assert result.verify_report is None

    def test_run_rejects_unknown_level(self, small_design):
        with pytest.raises(ValueError):
            api.run(small_design, config=api.RunConfig(verify="paranoid"))


class TestSuiteWiring:
    def test_suite_fails_loudly_on_violations(self, monkeypatch):
        from repro.evalkit import runner as runner_mod
        from repro.evalkit.metrics import PlacerMetrics

        def fake_run_benchmark(name, flow, config, flow_name):
            return PlacerMetrics(
                benchmark=name, placer=flow_name, hof=0.0, vof=0.0,
                wirelength=1.0, runtime=0.1, hpwl=1.0, violations=2,
            )

        monkeypatch.setattr(runner_mod, "run_benchmark", fake_run_benchmark)
        config = runner_mod.SuiteRunConfig(benchmarks=["OR1200"], verify="cheap")
        flows = {"PUFFER": lambda design, placement: None}
        with pytest.raises(VerificationError) as excinfo:
            runner_mod.run_suite(config, flows=flows)
        # The finished rows ride on the error instead of being discarded.
        assert excinfo.value.rows and excinfo.value.rows[0].violations == 2

    def test_verify_level_keys_cache(self):
        from repro.evalkit.runner import SuiteRunConfig, suite_cell_key

        off = suite_cell_key("OR1200", "PUFFER", SuiteRunConfig())
        cheap = suite_cell_key(
            "OR1200", "PUFFER", SuiteRunConfig(verify="cheap")
        )
        assert off != cheap
