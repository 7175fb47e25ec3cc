"""Tests for PUFFER's congestion estimation (capacity/demand/expansion)."""

from dataclasses import fields

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CongestionEstimator,
    EstimatorParams,
    ExpansionParams,
    accumulate_demand,
    build_topologies,
    combine_congestion,
    expand_demand,
)
from repro.core.capacity import CapacityModel
from repro.netlist import DesignBuilder, Rect, Technology
from repro.router import GlobalRouter, build_grid
from repro.rsmt import batch as rsmt_batch


def two_pin_design(ax, ay, bx, by, die=160.0):
    """Two cells at given positions joined by one net."""
    tech = Technology()
    b = DesignBuilder("two", tech, Rect(0, 0, die, die))
    c0 = b.add_cell("a", 2, tech.row_height, x=ax, y=ay)
    c1 = b.add_cell("b", 2, tech.row_height, x=bx, y=by)
    n = b.add_net("n")
    b.add_pin(c0, n)
    b.add_pin(c1, n)
    return b.build()


class TestCapacityModel:
    def test_cached(self, small_design):
        model = CapacityModel(small_design)
        assert model.grid is model.grid
        model.invalidate()
        assert model.grid is not None


class TestDemand:
    def test_i_segment_unit_demand(self):
        # Horizontal 2-pin net through Gcells 1..5 at gy 4.
        d = two_pin_design(24, 72, 88, 72)
        grid = build_grid(d)
        topos = build_topologies(d, grid)
        result = accumulate_demand(d, grid, topos, pin_penalty=0.0)
        assert result.dmd_h[1:6, 4].sum() == pytest.approx(5.0)
        assert result.dmd_v.sum() == 0.0
        assert len(result.i_segments) == 1

    def test_l_segment_average_demand(self):
        d = two_pin_design(24, 24, 88, 88)
        grid = build_grid(d)
        topos = build_topologies(d, grid)
        result = accumulate_demand(d, grid, topos, pin_penalty=0.0)
        # Bbox is 5x5 Gcells: H gets 1/5 per cell, V gets 1/5 per cell.
        assert result.dmd_h[1:6, 1:6].max() == pytest.approx(0.2)
        # Total demand preserved: 5 columns each contributing 1 in total.
        assert result.dmd_h.sum() == pytest.approx(5.0)
        assert result.dmd_v.sum() == pytest.approx(5.0)

    def test_local_net_only_pin_penalty(self):
        d = two_pin_design(24, 24, 25, 25)
        grid = build_grid(d)
        topos = build_topologies(d, grid)
        assert len(topos) == 0
        result = accumulate_demand(d, grid, topos, pin_penalty=0.1)
        assert result.dmd_h.sum() == pytest.approx(0.2)  # two pins

    def test_rounds_equal_with_memo_cold_and_warm(self, small_design, monkeypatch):
        # Padding rounds move a few cells between estimates; trees taken
        # from the warm memo must equal a cold build field by field.
        estimator = CongestionEstimator(small_design)
        grid = estimator.grid
        monkeypatch.setattr(rsmt_batch, "_MEMO", rsmt_batch.TreeMemo())
        rng = np.random.default_rng(7)
        die = small_design.die
        cached = []
        for _ in range(3):
            tracer = obs.Tracer()
            with obs.tracing(tracer):
                _, warm, _ = estimator.estimate()
            (record,) = [r for r in tracer.ring if r["name"] == "congestion/topologies"]
            cached.append(record["attrs"]["cached"])
            with monkeypatch.context() as cold_memo:
                cold_memo.setattr(rsmt_batch, "_MEMO", rsmt_batch.TreeMemo(max_bytes=0))
                cold = build_topologies(small_design, grid)
            for f in fields(cold):
                np.testing.assert_array_equal(getattr(warm, f.name), getattr(cold, f.name))
            moved = rng.choice(np.flatnonzero(small_design.movable), 25, replace=False)
            small_design.x[moved] = rng.uniform(die.xlo, die.xhi, len(moved))
        assert 0 < cached[1] < len(warm) and cached[2] > 0

    def test_pin_count_map(self, placed_small_design):
        grid = build_grid(placed_small_design)
        topos = build_topologies(placed_small_design, grid)
        result = accumulate_demand(placed_small_design, grid, topos)
        assert result.pin_count.sum() == placed_small_design.num_pins

    def test_demand_correlates_with_router(self, placed_small_design):
        """The estimate must rank Gcells like the evaluation router."""
        est = CongestionEstimator(placed_small_design, EstimatorParams(expand=False))
        cmap, _, _ = est.estimate()
        report = GlobalRouter(placed_small_design).run()
        est_total = (cmap.dmd_h + cmap.dmd_v).ravel()
        real_total = (report.demand.dmd_h + report.demand.dmd_v).ravel()
        corr = np.corrcoef(est_total, real_total)[0, 1]
        assert corr > 0.8


class TestExpansion:
    def _congested_result(self):
        """A design whose single I-segment overflows its row."""
        d = two_pin_design(24, 72, 88, 72)
        grid = build_grid(d)
        # Shrink capacity so the segment overflows.
        grid.cap_h[:, :] = 0.5
        grid.cap_v[:, :] = 0.5
        topos = build_topologies(d, grid)
        result = accumulate_demand(d, grid, topos, pin_penalty=0.0)
        return d, grid, result

    def test_total_demand_preserved(self):
        _, grid, result = self._congested_result()
        before = result.dmd_h.sum()
        expand_demand(grid, result, ExpansionParams(radius=2))
        assert result.dmd_h.sum() == pytest.approx(before)

    def test_demand_spreads_to_neighbor_rows(self):
        _, grid, result = self._congested_result()
        expand_demand(grid, result, ExpansionParams(radius=2))
        assert result.dmd_h[1:6, 3].sum() > 0 or result.dmd_h[1:6, 5].sum() > 0

    def test_pin_endpoints_no_perpendicular_demand(self):
        # Both endpoints are pins -> no detour (V) demand added.
        _, grid, result = self._congested_result()
        expand_demand(grid, result, ExpansionParams(radius=2))
        assert result.dmd_v.sum() == pytest.approx(0.0)

    def test_steiner_endpoint_adds_detour(self):
        # Three pins forming a T: the Steiner point sits mid-segment.
        tech = Technology()
        b = DesignBuilder("t", tech, Rect(0, 0, 160, 160))
        cells = []
        for i, (x, y) in enumerate([(24, 72), (136, 72), (88, 136)]):
            cells.append(b.add_cell(f"c{i}", 2, tech.row_height, x=x, y=y))
        n = b.add_net("n")
        for c in cells:
            b.add_pin(c, n)
        d = b.build()
        grid = build_grid(d)
        grid.cap_h[:, :] = 0.5
        grid.cap_v[:, :] = 0.5
        topos = build_topologies(d, grid)
        result = accumulate_demand(d, grid, topos, pin_penalty=0.0)
        v_before = result.dmd_v.sum()
        expand_demand(grid, result, ExpansionParams(radius=2))
        assert result.dmd_v.sum() > v_before  # detour demand appeared

    def test_no_expansion_when_uncongested(self, placed_small_design):
        est_off = CongestionEstimator(
            placed_small_design, EstimatorParams(expand=False)
        )
        cmap_off, _, demand_off = est_off.estimate()
        grid = est_off.grid
        if np.maximum(demand_off.dmd_h - grid.cap_h, 0).sum() == 0:
            before = demand_off.dmd_h.copy()
            expand_demand(grid, demand_off, ExpansionParams())
            assert np.allclose(demand_off.dmd_h, before)


class TestCongestionMap:
    def test_combine_congestion_rules(self):
        cg_h = np.array([[0.5, -0.5]])
        cg_v = np.array([[0.2, 0.3]])
        combined = combine_congestion(cg_h, cg_v)
        assert combined[0, 0] == pytest.approx(0.7)  # same sign: sum
        assert combined[0, 1] == pytest.approx(0.3)  # opposite: max

    def test_signed_congestion_preserved(self, placed_small_design):
        est = CongestionEstimator(placed_small_design)
        cmap, _, _ = est.estimate()
        # Somewhere there must be spare capacity => negative values kept.
        assert cmap.cg_h.min() < 0

    def test_overflow_ratio_nonnegative(self, placed_small_design):
        est = CongestionEstimator(placed_small_design)
        cmap, _, _ = est.estimate()
        hof, vof = cmap.overflow_ratio()
        assert hof >= 0 and vof >= 0

    def test_topologies_cover_multi_gcell_nets(self, placed_small_design):
        est = CongestionEstimator(placed_small_design)
        _, topologies, _ = est.estimate()
        assert len(topologies) > 0
        assert topologies.edges.shape[1] == 2
        for i in range(min(len(topologies), 20)):
            lo, hi = topologies.point_start[i], topologies.point_start[i + 1]
            assert topologies.is_pin[lo:hi].sum() >= 2
            edges = topologies.edges[
                topologies.edge_start[i] : topologies.edge_start[i + 1]
            ]
            assert len(edges) == hi - lo - 1  # a tree over the entry's points
            assert ((edges >= lo) & (edges < hi)).all()
