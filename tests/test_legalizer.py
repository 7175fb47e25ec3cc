"""Tests for row management, Abacus, and Tetris legalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.legalizer import (
    SegmentIndex,
    build_segments,
    legalize_abacus,
    legalize_tetris,
)
from repro.netlist import DesignBuilder, Rect, Technology
from repro.placer import GlobalPlacer, PlacementParams
from repro.verify import VerifyContext, run_checkers

from .legalizer_oracle import build_segments_rects


class TestRowSegments:
    def test_full_rows_without_blockers(self):
        tech = Technology()
        b = DesignBuilder("r", tech, Rect(0, 0, 64, 64))
        b.add_cell("c", 2, tech.row_height, x=32, y=32)
        d = b.build()
        segments = build_segments(d)
        assert len(segments) == 8  # 64 / 8 rows
        assert all(s.xlo == 0 and s.xhi == 64 for s in segments)

    def test_macro_splits_rows(self):
        tech = Technology()
        b = DesignBuilder("r", tech, Rect(0, 0, 64, 64))
        b.add_cell("c", 2, tech.row_height, x=5, y=4)
        b.add_cell("m", 16, 16, x=32, y=16, movable=False, macro=True)
        d = b.build()
        segments = build_segments(d)
        # Rows 1 and 2 (y in [8, 24)) are split into two segments each.
        split_rows = [s for s in segments if s.y in (8.0, 16.0)]
        assert len(split_rows) == 4
        assert all(s.xhi <= 24 or s.xlo >= 40 for s in split_rows)

    # Fixed cells on a quarter-unit lattice so edges touch, overlap each
    # other, sit exactly on row boundaries and stick out of the die.
    _blocker = st.tuples(
        st.integers(-40, 300).map(lambda v: v / 4.0),   # x center
        st.integers(-40, 300).map(lambda v: v / 4.0),   # y center
        st.integers(1, 120).map(lambda v: v / 4.0),     # width
        st.integers(1, 120).map(lambda v: v / 4.0),     # height
        st.booleans(),                                  # macro
    )

    @given(
        blockers=st.lists(_blocker, max_size=40),
        origin=st.sampled_from([0.0, 3.5, -2.25]),
        size=st.tuples(st.integers(4, 72), st.integers(8, 72)),
        movable=st.integers(0, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_rect_loop(self, blockers, origin, size, movable):
        tech = Technology()
        die = Rect(origin, origin, origin + size[0], origin + size[1])
        b = DesignBuilder("rows", tech, die)
        for i in range(movable):
            b.add_cell(f"c{i}", 2, tech.row_height, x=origin + 2 * i + 1,
                       y=origin + tech.row_height / 2)
        for i, (x, y, w, h, macro) in enumerate(blockers):
            b.add_cell(f"f{i}", w, h, x=origin + x, y=origin + y,
                       movable=False, macro=macro)
        d = b.build()
        assert build_segments(d) == build_segments_rects(d)

    def test_matches_rect_loop_on_region_blockers(self, placed):
        """An ECO region legalization makes every clean cell a blocker."""
        saved = placed.movable
        try:
            placed.movable = saved & (np.arange(placed.num_cells) % 7 == 0)
            assert build_segments(placed) == build_segments_rects(placed)
        finally:
            placed.movable = saved

    def test_segment_index_nearest_row(self, small_design):
        index = SegmentIndex.build(small_design)
        assert index.nearest_row(small_design.die.ylo) == 0
        assert index.nearest_row(small_design.die.yhi + 100) == index.num_rows - 1


@pytest.fixture
def placed(small_design):
    GlobalPlacer(small_design, PlacementParams(max_iters=300)).run()
    return small_design


class TestAbacus:
    def test_produces_legal_placement(self, placed):
        legalize_abacus(placed)
        assert run_checkers(VerifyContext(design=placed)).ok

    def test_small_hpwl_degradation(self, placed):
        before = placed.hpwl()
        legalize_abacus(placed)
        assert placed.hpwl() < before * 1.25

    def test_displacement_reported(self, placed):
        result = legalize_abacus(placed)
        assert result.total_displacement > 0
        assert result.max_displacement <= result.total_displacement
        assert result.num_cells == int(
            (placed.movable & ~placed.is_macro).sum()
        )

    def test_padded_widths_respected(self, placed):
        widths = placed.w.copy()
        movable = placed.movable & ~placed.is_macro
        padded = np.flatnonzero(movable)[::3]  # pad a third of the cells
        widths[padded] += 2.0
        legalize_abacus(placed, widths=widths)
        assert run_checkers(VerifyContext(design=placed)).ok
        # A padded cell's footprint must not overlap any neighbour: its
        # neighbours in the same row stay at least 2 units of air away
        # from the padded outline on the two sides combined.
        idx = np.flatnonzero(movable)
        ylo = placed.y[idx] - placed.h[idx] / 2
        order = np.lexsort((placed.x[idx], ylo))
        padded_set = set(padded.tolist())
        for a, b in zip(order[:-1], order[1:]):
            if ylo[a] != ylo[b]:
                continue
            gap = (placed.x[idx[b]] - placed.w[idx[b]] / 2) - (
                placed.x[idx[a]] + placed.w[idx[a]] / 2
            )
            both_padded = int(idx[a] in padded_set) + int(idx[b] in padded_set)
            assert gap >= both_padded * 1.0 - 1e-6

    def test_impossible_padding_raises(self, placed):
        widths = placed.w + placed.die.width  # cannot fit anywhere
        with pytest.raises(RuntimeError):
            legalize_abacus(placed, widths=widths)

    def test_fixed_cells_not_moved(self, placed):
        fixed = ~placed.movable
        x0 = placed.x[fixed].copy()
        legalize_abacus(placed)
        assert np.array_equal(placed.x[fixed], x0)

    def test_max_row_search_zero_pins_home_row(self):
        # Regression: `max_row_search or num_rows` treated an explicit 0
        # as "search everything"; 0 must mean home-row-only.
        tech = Technology()
        b = DesignBuilder("sparse", tech, Rect(0, 0, 64, 64))
        for i in range(8):
            b.add_cell(f"c{i}", 4, tech.row_height, x=8 * i + 4, y=8 * i + 4)
        d = b.build()
        index = SegmentIndex.build(d)
        movable = np.flatnonzero(d.movable & ~d.is_macro)
        home = {
            int(c): index.nearest_row(d.y[c] - d.h[c] / 2) for c in movable
        }
        legalize_abacus(d, max_row_search=0)
        assert run_checkers(VerifyContext(design=d)).ok
        for c in movable:
            assert index.nearest_row(d.y[c] - d.h[c] / 2) == home[int(c)]

    def test_max_row_search_zero_fails_on_full_home_row(self):
        # Nine 8-wide cells target one 64-wide row.  Home-row-only must
        # fail loudly; the old falsy check silently searched every row.
        def overfull():
            tech = Technology()
            b = DesignBuilder("full", tech, Rect(0, 0, 64, 16))
            for i in range(9):
                b.add_cell(f"c{i}", 8, tech.row_height, x=7 * i + 4, y=4)
            return b.build()

        with pytest.raises(RuntimeError):
            legalize_abacus(overfull(), max_row_search=0)
        d = overfull()
        legalize_abacus(d)  # unrestricted search spills to row 1
        assert run_checkers(VerifyContext(design=d)).ok

    def test_max_row_search_radius_is_inclusive(self, placed):
        # A cap of r may move a cell at most r rows from its home row.
        index = SegmentIndex.build(placed)
        row_height = placed.technology.row_height
        movable = np.flatnonzero(placed.movable & ~placed.is_macro)
        home = {
            int(c): index.nearest_row(placed.y[c] - placed.h[c] / 2)
            for c in movable
        }
        result = legalize_abacus(placed, max_row_search=2)
        assert result.num_cells == len(movable)
        for c in movable:
            row = index.nearest_row(placed.y[c] - placed.h[c] / 2)
            assert abs(index.row_ys[row] - index.row_ys[home[int(c)]]) <= (
                2 * row_height + 1e-9
            )


class TestTetris:
    def test_produces_legal_placement(self, placed):
        legalize_tetris(placed)
        assert run_checkers(VerifyContext(design=placed)).ok

    def test_worse_or_equal_to_abacus(self, small_design):
        GlobalPlacer(small_design, PlacementParams(max_iters=300)).run()
        snapshot = small_design.snapshot_positions()
        abacus = legalize_abacus(small_design)
        small_design.restore_positions(*snapshot)
        tetris = legalize_tetris(small_design)
        assert tetris.total_displacement >= abacus.total_displacement * 0.5

    def test_padded_widths(self, placed):
        widths = placed.w.copy()
        movable = placed.movable & ~placed.is_macro
        widths[movable] += 1.0
        legalize_tetris(placed, widths=widths)
        assert run_checkers(VerifyContext(design=placed)).ok
