"""Tests for design transformations (clone / mirror / window)."""

import numpy as np
import pytest

from repro.netlist import (
    Rect,
    clone_design,
    extract_window,
    mirror_horizontal,
)
from repro.verify import VerifyContext, run_checkers


class TestClone:
    def test_independent_positions(self, small_design):
        copy = clone_design(small_design)
        copy.x[copy.movable] += 5.0
        assert not np.allclose(copy.x, small_design.x)

    def test_same_hpwl(self, small_design):
        copy = clone_design(small_design)
        assert copy.hpwl() == pytest.approx(small_design.hpwl())

    def test_topology_preserved(self, small_design):
        copy = clone_design(small_design)
        assert np.array_equal(copy.net_start, small_design.net_start)
        assert copy.cell_names == small_design.cell_names
        assert len(copy.blockages) == len(small_design.blockages)


class TestMirror:
    def test_hpwl_invariant(self, placed_small_design):
        copy = clone_design(placed_small_design)
        mirror_horizontal(copy)
        assert copy.hpwl() == pytest.approx(placed_small_design.hpwl(), rel=1e-9)

    def test_double_mirror_is_identity(self, placed_small_design):
        copy = clone_design(placed_small_design)
        mirror_horizontal(copy)
        mirror_horizontal(copy)
        assert np.allclose(copy.x, placed_small_design.x)
        assert np.allclose(copy.pin_dx, placed_small_design.pin_dx)

    def test_positions_stay_inside_die(self, placed_small_design):
        copy = clone_design(placed_small_design)
        mirror_horizontal(copy)
        die = copy.die
        assert (copy.x >= die.xlo - 1e-9).all()
        assert (copy.x <= die.xhi + 1e-9).all()


class TestExtractWindow:
    def test_basic_extraction(self, placed_small_design):
        die = placed_small_design.die
        window = Rect(die.xlo, die.ylo, die.center.x, die.center.y)
        sub = extract_window(placed_small_design, window)
        assert 0 < sub.num_cells < placed_small_design.num_cells
        assert sub.die == window
        assert run_checkers(VerifyContext(design=sub), names=["netlist/integrity"]).ok

    def test_positions_preserved(self, placed_small_design):
        die = placed_small_design.die
        window = Rect(die.xlo, die.ylo, die.center.x, die.center.y)
        sub = extract_window(placed_small_design, window)
        for i, name in enumerate(sub.cell_names[:10]):
            j = placed_small_design.cell_names.index(name)
            assert sub.x[i] == pytest.approx(placed_small_design.x[j])

    def test_nets_only_keep_inside_pins(self, placed_small_design):
        die = placed_small_design.die
        window = Rect(die.xlo, die.ylo, die.center.x, die.center.y)
        sub = extract_window(placed_small_design, window)
        assert sub.num_pins <= placed_small_design.num_pins
        assert sub.num_nets <= placed_small_design.num_nets

    def test_disjoint_window_raises(self, placed_small_design):
        with pytest.raises(ValueError):
            extract_window(placed_small_design, Rect(-100, -100, -50, -50))

    def test_empty_window_raises(self, placed_small_design):
        die = placed_small_design.die
        # A sliver along the die edge holds no cell centers (IO pads are
        # at exactly the boundary but their centers are half a site in).
        window = Rect(die.xlo, die.ylo, die.xlo + 1e-6, die.ylo + 1e-6)
        with pytest.raises(ValueError):
            extract_window(placed_small_design, window)

    def test_blockages_clipped(self, placed_small_design):
        die = placed_small_design.die
        window = Rect(die.xlo, die.ylo, die.xhi, die.center.y)
        sub = extract_window(placed_small_design, window)
        for blk in sub.blockages:
            assert window.contains_rect(blk.rect)
